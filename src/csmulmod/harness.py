"""Sweep engines: exhaustive small-width verification, seeded random
verification at large widths, and the cycle-count hunter.

Work is sharded by modulus (exhaustive) or into contiguous instance
chunks (random) so the precomputed constants are reused and the merged
report is identical for any parallelism degree: shards are merged in
enumeration order and every aggregate (counts, histograms, first-N
witness lists) is order-independent or order-preserving.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
import time
from dataclasses import dataclass, field

from . import __version__
from .errors import ContractViolation
from .modparams import ModulusParams, precompute
from .pipeline import mulmod_checked
from .shrink import HUNT_CYCLE_CAP, NORMAL_CYCLE_CAP

__all__ = [
    "SweepConfig",
    "SweepReport",
    "exhaustive_sweep",
    "hunt_shrink_cycles",
    "random_sweep",
]

INSTANCE_CAP = 6_000_000
WITNESS_CAP = 100
HIST_BUCKETS = 8  # shrink cycle counts 0..7


@dataclass(frozen=True)
class SweepConfig:
    """What to enumerate and how to run it.

    Exhaustive sweeps enumerate every modulus in the k range, with ``n``
    overriding the working width (defaults to k; larger values exercise
    the shift path). Random sweeps draw ``count`` seeded instances at
    width ``n``; leaving the k range unset draws full-width moduli, while
    an explicit range below n mixes in shift-path instances. The entry
    point called decides the mode.
    """

    k_min: int | None = None
    k_max: int | None = None
    n: int | None = None
    count: int | None = None
    seed: int | None = None
    jobs: int = 1

    def resolved(self, mode: str) -> "SweepConfig":
        """Fill mode-dependent defaults and validate the result."""
        cfg = self
        if mode == "random":
            if cfg.n is None:
                raise ContractViolation("random sweep requires n")
            if cfg.count is None or cfg.count < 1:
                raise ContractViolation(f"count >= 1 violated (count={cfg.count})")
            if cfg.seed is None:
                raise ContractViolation("random sweep requires a seed")
            k_min = cfg.k_min if cfg.k_min is not None else cfg.n
            k_max = cfg.k_max if cfg.k_max is not None else cfg.n
        else:
            k_min = cfg.k_min if cfg.k_min is not None else 3
            k_max = cfg.k_max if cfg.k_max is not None else 6
        cfg = dataclasses.replace(cfg, k_min=k_min, k_max=k_max)
        if cfg.k_min < 3:
            raise ContractViolation(f"k >= 3 violated (k_min={cfg.k_min})")
        if cfg.k_max < cfg.k_min:
            raise ContractViolation(
                f"k_min <= k_max violated ({cfg.k_min} > {cfg.k_max})"
            )
        if cfg.n is not None and cfg.n < cfg.k_max:
            raise ContractViolation(
                f"k <= n violated (k_max={cfg.k_max}, n={cfg.n})"
            )
        if cfg.jobs < 1:
            raise ContractViolation(f"jobs >= 1 violated (jobs={cfg.jobs})")
        return cfg

    def canonical(self, mode: str) -> dict:
        # The parallelism degree shapes execution, not results, so it
        # stays out of the reproducibility-relevant echo.
        return {
            "mode": mode,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "n": self.n,
            "count": self.count,
            "seed": self.seed,
            "witness_cap": WITNESS_CAP,
        }


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _params(R: int, n: int) -> ModulusParams | str:
    """precompute(R, n), or the failure reason of every instance needing it."""
    try:
        return precompute(R, n)
    except Exception as exc:
        return _reason(exc)


def _witness(n: int, R: int, A: int, B: int, **extra) -> dict:
    w = {"n": n, "r": format(R, "X"), "a": format(A, "X"), "b": format(B, "X")}
    w.update(extra)
    return w


@dataclass
class SweepReport:
    """Sweep tally plus the machine-readable document.

    Each shard fills one with ``add``; the entry point merges the shards
    into the report it returns, in enumeration order.
    """

    version: str = __version__
    config: dict = field(default_factory=dict)
    seed: int | None = None
    instances: int = 0
    failures_total: int = 0
    failures: list[dict] = field(default_factory=list)
    cycle_histogram: dict[int, int] = field(
        default_factory=lambda: dict.fromkeys(range(HIST_BUCKETS), 0)
    )
    rule_usage: dict[int, int] = field(
        default_factory=lambda: dict.fromkeys(range(1, 7), 0)
    )
    # The first instance reaching the maximum; None until one succeeds.
    max_cycles: int = 0
    max_cycles_witness: dict | None = None
    cycle_witnesses: list[dict] = field(default_factory=list)
    cycle_witnesses_total: int = 0
    ge5_total: int = 0
    wall_time_s: float = 0.0

    def add(self, n: int, R: int, A: int, B: int, hunt: bool,
            params: ModulusParams | str) -> None:
        """Run one instance through the checked kernel and tally it; a str
        ``params`` is the reason ``_params`` could not build them."""
        self.instances += 1
        if isinstance(params, str):
            self._fail(n, R, A, B, params)
            return
        cap = HUNT_CYCLE_CAP if hunt else NORMAL_CYCLE_CAP
        try:
            result, ok = mulmod_checked(
                A, B, R, n, params=params, shrink_cycle_cap=cap
            )
        except Exception as exc:
            # Any exception is a failed instance, not an aborted sweep.
            self._fail(n, R, A, B, _reason(exc))
            return
        cycles = result.shrink_cycles
        self.cycle_histogram[min(cycles, HIST_BUCKETS - 1)] += 1
        self.rule_usage[result.squeeze_rule] += 1
        if self.max_cycles_witness is None or cycles > self.max_cycles:
            self.max_cycles = cycles
            self.max_cycles_witness = _witness(n, R, A, B)
        if hunt and cycles >= 4:
            self.cycle_witnesses_total += 1
            if cycles >= 5:
                self.ge5_total += 1
            if len(self.cycle_witnesses) < WITNESS_CAP:
                self.cycle_witnesses.append(_witness(n, R, A, B, cycles=cycles))
        if not ok:
            if result.p >= R or result.q >= R:
                self._fail(n, R, A, B, "output not below modulus")
            else:
                self._fail(n, R, A, B, "residue mismatch")

    def _fail(self, n: int, R: int, A: int, B: int, reason: str) -> None:
        self.failures_total += 1
        if len(self.failures) < WITNESS_CAP:
            self.failures.append(_witness(n, R, A, B, reason=reason))

    def merge(self, other: "SweepReport") -> None:
        """Fold in the tally of a shard that comes later in enumeration order."""
        self.instances += other.instances
        self.failures_total += other.failures_total
        self.cycle_witnesses_total += other.cycle_witnesses_total
        self.ge5_total += other.ge5_total
        for cycles, count in other.cycle_histogram.items():
            self.cycle_histogram[cycles] += count
        for rule, count in other.rule_usage.items():
            self.rule_usage[rule] += count
        self.failures.extend(other.failures[: WITNESS_CAP - len(self.failures)])
        self.cycle_witnesses.extend(
            other.cycle_witnesses[: WITNESS_CAP - len(self.cycle_witnesses)]
        )
        if self.max_cycles_witness is None or other.max_cycles > self.max_cycles:
            self.max_cycles = other.max_cycles
            self.max_cycles_witness = other.max_cycles_witness

    def ok(self) -> bool:
        return self.failures_total == 0 and self.ge5_total == 0

    def to_json_dict(self) -> dict:
        """The documented report schema. Wall time is excluded on purpose:
        reports from identical configs must be byte-identical."""
        return {
            "header": {
                "version": self.version,
                "config": self.config,
                "seed": self.seed,
            },
            "body": {
                "totals": {
                    "instances": self.instances,
                    "failures": self.failures_total,
                },
                "cycle_histogram": {
                    str(i): c for i, c in self.cycle_histogram.items()
                },
                "rule_usage": {str(i): c for i, c in self.rule_usage.items()},
                "max_cycles": {
                    "value": self.max_cycles,
                    "witness": self.max_cycles_witness,
                },
                "failures": self.failures,
                "cycle_witnesses": self.cycle_witnesses,
                "cycle_witnesses_total": self.cycle_witnesses_total,
            },
        }

    def to_json_bytes(self) -> bytes:
        doc = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return (doc + "\n").encode("ascii")

    def summary(self) -> str:
        return (
            f"mode={self.config['mode']} instances={self.instances} "
            f"failures={self.failures_total} max_shrink_cycles={self.max_cycles} "
            f"wall={self.wall_time_s:.2f}s"
        )


def _run_modulus_task(task: tuple) -> SweepReport:
    """One exhaustive shard: every (A, B) pair of a single modulus."""
    hunt, n, R = task
    shard = SweepReport()
    params = _params(R, n)
    for A in range(R):
        for B in range(R):
            shard.add(n, R, A, B, hunt, params)
    return shard


def _run_random_chunk(task: tuple) -> SweepReport:
    """One random shard: a contiguous slice of the drawn instance list."""
    n, instances = task
    shard = SweepReport()
    for R, A, B in instances:
        shard.add(n, R, A, B, False, _params(R, n))
    return shard


def _execute(tasks: list, worker, config: SweepConfig, mode: str,
             started: float) -> SweepReport:
    report = SweepReport(config=config.canonical(mode), seed=config.seed)
    if config.jobs == 1 or len(tasks) <= 1:
        for shard in map(worker, tasks):
            report.merge(shard)
    else:
        with multiprocessing.Pool(processes=config.jobs) as pool:
            for shard in pool.imap(worker, tasks, chunksize=1):
                report.merge(shard)
    report.wall_time_s = time.perf_counter() - started
    return report


def _sweep_moduli(config: SweepConfig, mode: str) -> SweepReport:
    """Every (R, A, B) with R in the k range, in (k, R, A, B) order."""
    config = config.resolved(mode)
    started = time.perf_counter()
    expected = 0
    tasks = []
    for k in range(config.k_min, config.k_max + 1):
        n = config.n if config.n is not None else k
        for R in range(1 << (k - 1), 1 << k):
            expected += R * R
            tasks.append((mode == "hunt", n, R))
    if expected > INSTANCE_CAP:
        raise ContractViolation(
            f"instance cap exceeded: sweep would run {expected} instances, "
            f"cap is {INSTANCE_CAP}"
        )
    return _execute(tasks, _run_modulus_task, config, mode, started)


def exhaustive_sweep(config: SweepConfig) -> SweepReport:
    """Check every (R, A, B) with R in the k range against the reference.

    Enumeration order is (k, R, A, B) lexicographic; witnesses keep that
    order no matter how many workers run the shards.
    """
    return _sweep_moduli(config, "verify")


def hunt_shrink_cycles(config: SweepConfig) -> SweepReport:
    """Exhaustive sweep with the relaxed cycle cap, recording heavy instances.

    Any instance needing 4 cycles is a finding worth publishing (the known
    worst case observed so far is 3); an instance needing 5 or more
    contradicts the proven bound and makes the report failing.
    """
    return _sweep_moduli(config, "hunt")


def random_sweep(config: SweepConfig) -> SweepReport:
    """Run seeded random instances at width n against the reference.

    Instances are drawn up front from one generator, so the sequence is a
    pure function of the seed and the config; chunking for parallel
    execution cannot change it.
    """
    config = config.resolved("random")
    started = time.perf_counter()
    n = config.n
    rng = random.Random(config.seed)
    full_width = config.k_min == config.k_max == n
    instances = []
    for _ in range(config.count):
        k = n if full_width else rng.randint(config.k_min, config.k_max)
        R = rng.randrange(1 << (k - 1), 1 << k)
        A = rng.randrange(R)
        B = rng.randrange(R)
        instances.append((R, A, B))
    chunk = max(1, min(500, -(-config.count // (config.jobs * 8))))
    tasks = [(n, instances[i : i + chunk]) for i in range(0, len(instances), chunk)]
    return _execute(tasks, _run_random_chunk, config, "random", started)
