"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed, runs an untimed
warm-up instance, then runs its timed, untraced loop against the public
csmulmod API and checks every output against the oracle. Each one also
names a golden configuration whose output digest is recorded in
``digests.json``; a run is only reported when that digest still matches.

All times are host wall-clock times from ``time.perf_counter``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

from csmulmod import (
    SweepConfig,
    exhaustive_sweep,
    fold_pair,
    mulmod_checked,
    random_sweep,
    ref_mulmod,
)
from csmulmod.cli import main as cli_main

from calibrate import probe_s, sampling

__all__ = [
    "WORKLOADS",
    "CliTraced",
    "ExhaustiveSweep",
    "FullWidthRandom",
    "Outcome",
    "RandomSweep",
    "cli_answer_ok",
    "cli_argv",
    "cli_call",
    "draw_full_width",
    "report_digest",
]

# Seed of the golden configurations. They are fixed, so the recorded
# digests do not depend on the seed a run is given.
GOLDEN_SEED = 20221017


@dataclass
class Outcome:
    """What one timed region did.

    ``marks`` holds, after each call, the seconds since the region began
    and the instances attempted so far. ``probes_s`` holds, for each call,
    the time the reference task of calibrate.py took around it. ``golden``
    holds every digest
    observed for the workload's golden configuration; the run passes the
    gate only if that set is exactly the recorded digest.
    """

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    marks: list[tuple[float, int]] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    golden: set[str] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def add_report(self, report) -> None:
        self.attempted += report.instances
        self.failed += report.failures_total
        for failure in report.failures[: 10 - len(self.reasons)]:
            self.reasons.append(json.dumps(failure, sort_keys=True))


def draw_full_width(seed: int, n: int) -> Iterator[tuple[int, int, int]]:
    """The (R, A, B) sequence that ``random_sweep`` draws at full width n.

    The traced run relies on this being the same sequence, and checks it:
    its stage-by-stage cycle histogram and rule usage must equal those of
    the ``random_sweep`` report over the same seed and count.
    """
    rng = random.Random(seed)
    while True:
        R = rng.randrange(1 << (n - 1), 1 << n)
        A = rng.randrange(R)
        B = rng.randrange(R)
        yield R, A, B


def report_digest(report) -> str:
    """sha256 of a sweep report's canonical bytes (histogram, rule usage,
    failures and witnesses included)."""
    return hashlib.sha256(report.to_json_bytes()).hexdigest()


@dataclass(frozen=True)
class ExhaustiveSweep:
    """Every (R, A, B) with R of K_MIN..k_max bits, sharded over a pool of
    JOBS workers.

    The instance space is fixed, so the seed selects nothing here; every
    timed sweep is itself the golden configuration.
    """

    K_MIN: ClassVar[int] = 3
    JOBS: ClassVar[int] = 2

    name: str
    k_max: int
    cli_sample: int  # traced run: instances also rendered through the CLI

    @property
    def golden_key(self) -> str:
        return f"exhaustive_sweep k={self.K_MIN}..{self.k_max}"

    def build(self, seed: int) -> SweepConfig:
        return SweepConfig(k_min=self.K_MIN, k_max=self.k_max, jobs=self.JOBS)

    def warm_up(self, inputs: SweepConfig) -> bool:
        R = (1 << self.K_MIN) - 1
        _, ok = mulmod_checked(R - 1, R - 2, R, self.K_MIN)
        return ok

    def run(self, inputs: SweepConfig, seconds: float) -> Outcome:
        out = Outcome()
        start = time.perf_counter()
        while True:
            with sampling() as samples:
                t0 = time.perf_counter()
                report = exhaustive_sweep(inputs)
                t1 = time.perf_counter()
            out.latencies_s.append(t1 - t0)
            out.probes_s.append(statistics.fmean(samples))
            out.add_report(report)
            out.marks.append((t1 - start, out.attempted))
            out.golden.add(report_digest(report))
            if t1 - start >= seconds:
                break
        out.wall_s = t1 - start
        return out

    def trace_groups(self, seed: int):
        """(n, R, pairs) per modulus, in the sweep's enumeration order."""
        for k in range(self.K_MIN, self.k_max + 1):
            for R in range(1 << (k - 1), 1 << k):
                yield k, R, itertools.product(range(R), repeat=2)

    def trace_sweep(self, seed: int, jobs: int):
        return exhaustive_sweep(SweepConfig(k_min=self.K_MIN, k_max=self.k_max, jobs=jobs))

    def traced_golden(self, reports) -> set[str]:
        """The traced sweeps are the golden configuration itself."""
        return {report_digest(report) for report in reports}

    def trace_cli_sample(self, seed: int) -> list[tuple[int, int, int, int]]:
        """Evenly spaced instances of the enumeration, as (n, R, A, B)."""
        every = ((n, R, A, B) for n, R, pairs in self.trace_groups(seed) for A, B in pairs)
        total = sum(R * R for _, R, _ in self.trace_groups(seed))
        step = max(1, total // self.cli_sample)
        return list(itertools.islice(every, 0, step * self.cli_sample, step))


@dataclass(frozen=True)
class FullWidthRandom:
    """What the workloads on full-width random instances of width N share:
    their traced instance set, the sweep over it, the CLI sample and the
    golden check. Each subclass defines ``golden_digest``."""

    N: ClassVar[int]

    name: str
    golden_count: int
    trace_count: int  # traced run: instances of random_sweep(seed=<seed>)
    cli_sample: int  # traced run: the first of those, also rendered through the CLI

    def sweep_config(self, seed: int, count: int, jobs: int = 1) -> SweepConfig:
        return SweepConfig(n=self.N, count=count, seed=seed, jobs=jobs)

    def trace_groups(self, seed: int):
        """(n, R, pairs) with one pair each: params are built per
        instance, as random_sweep builds them."""
        for R, A, B in itertools.islice(draw_full_width(seed, self.N), self.trace_count):
            yield self.N, R, ((A, B),)

    def trace_sweep(self, seed: int, jobs: int):
        return random_sweep(self.sweep_config(seed, self.trace_count, jobs))

    def traced_golden(self, reports) -> set[str]:
        return {self.golden_digest()}

    def trace_cli_sample(self, seed: int) -> list[tuple[int, int, int, int]]:
        draws = itertools.islice(draw_full_width(seed, self.N), self.cli_sample)
        return [(self.N, R, A, B) for R, A, B in draws]


@dataclass(frozen=True)
class RandomSweep(FullWidthRandom):
    """Back-to-back ``random_sweep`` calls of one full-width instance each.

    Each call's seed is drawn from the benchmark seed. jobs=1 keeps the
    work in this process, bypassing the pool.
    """

    N: ClassVar[int] = 256

    @property
    def golden_key(self) -> str:
        return f"random_sweep n={self.N} count={self.golden_count} seed={GOLDEN_SEED}"

    def build(self, seed: int) -> Iterator[SweepConfig]:
        rng = random.Random(seed)
        return (self.sweep_config(rng.getrandbits(63), 1) for _ in itertools.count())

    def warm_up(self, inputs: Iterator[SweepConfig]) -> bool:
        first = next(inputs)
        R, A, B = next(draw_full_width(first.seed, self.N))
        _, ok = mulmod_checked(A, B, R, self.N)
        return ok

    def run(self, inputs: Iterator[SweepConfig], seconds: float) -> Outcome:
        out = Outcome()
        before = probe_s()
        start = time.perf_counter()
        for config in inputs:
            t0 = time.perf_counter()
            report = random_sweep(config)
            t1 = time.perf_counter()
            out.latencies_s.append(t1 - t0)
            out.add_report(report)
            out.marks.append((t1 - start, out.attempted))
            if report.instances != config.count:
                out.fail(f"random_sweep ran {report.instances} of {config.count}")
            after = probe_s()
            out.probes_s.append((before + after) / 2)
            before = after
            if t1 - start >= seconds:
                break
        out.wall_s = t1 - start
        out.golden.add(self.golden_digest())
        return out

    def golden_digest(self) -> str:
        return report_digest(random_sweep(self.sweep_config(GOLDEN_SEED, self.golden_count)))


def cli_argv(n: int, R: int, A: int, B: int) -> list[str]:
    return [
        "mulmod", "--n", str(n), "--mod", format(R, "X"),
        "--a", format(A, "X"), "--b", format(B, "X"), "--trace", "--json",
    ]


def cli_call(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def cli_answer_ok(text: str, R: int, A: int, B: int) -> bool:
    try:
        doc = json.loads(text)
        p, q = int(doc["p"], 16), int(doc["q"], 16)
    except (ValueError, KeyError, TypeError):
        return False
    return p < R and q < R and fold_pair(p, q, R) == ref_mulmod(A, B, R)


@dataclass(frozen=True)
class CliTraced(FullWidthRandom):
    """A closed loop with one caller: ``csmulmod mulmod --trace --json``
    at width N, in process, on full-width instances drawn from the seed.

    The timed region runs for the given seconds and, past that, until it
    holds ``min_samples`` calls, so that p99 has ten samples beyond it.
    """

    N: ClassVar[int] = 64

    min_samples: int

    @property
    def golden_key(self) -> str:
        return f"cli mulmod --trace --json n={self.N} count={self.golden_count} seed={GOLDEN_SEED}"

    def build(self, seed: int) -> Iterator[tuple[int, int, int]]:
        return draw_full_width(seed, self.N)

    def warm_up(self, inputs: Iterator[tuple[int, int, int]]) -> bool:
        R, A, B = next(inputs)
        code, text = cli_call(cli_argv(self.N, R, A, B))
        return code == 0 and cli_answer_ok(text, R, A, B)

    def run(self, inputs: Iterator[tuple[int, int, int]], seconds: float) -> Outcome:
        out = Outcome()
        before = probe_s()
        start = time.perf_counter()
        for R, A, B in inputs:
            argv = cli_argv(self.N, R, A, B)
            t0 = time.perf_counter()
            try:
                code, text = cli_call(argv)
            except Exception as exc:  # a raised exception is a counted failure
                code, text = -1, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            out.latencies_s.append(t1 - t0)
            out.attempted += 1
            out.marks.append((t1 - start, out.attempted))
            if code != 0:
                out.fail(f"exit {code} for {argv}: {text.strip()}")
            elif not cli_answer_ok(text, R, A, B):
                out.fail(f"oracle mismatch for {argv}")
            after = probe_s()
            out.probes_s.append((before + after) / 2)
            before = after
            if t1 - start >= seconds and out.attempted >= self.min_samples:
                break
        out.wall_s = time.perf_counter() - start
        out.golden.add(self.golden_digest())
        return out

    def golden_digest(self) -> str:
        digest = hashlib.sha256()
        for R, A, B in itertools.islice(draw_full_width(GOLDEN_SEED, self.N), self.golden_count):
            digest.update(cli_call(cli_argv(self.N, R, A, B))[1].encode())
        return digest.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        ExhaustiveSweep("exhaustive-k3to6", k_max=6, cli_sample=200),
        RandomSweep("random-n256", golden_count=64, trace_count=600, cli_sample=100),
        CliTraced(
            "cli-traced-n64", golden_count=32, trace_count=600, cli_sample=600, min_samples=1000
        ),
    )
}
