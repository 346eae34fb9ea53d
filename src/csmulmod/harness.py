"""Sweep engines: exhaustive small-width verification and seeded random
verification at large widths. A hunt is an exhaustive sweep whose report
says ``hunt``.

Work is sharded into runs of moduli (exhaustive) or, on a pool, into
contiguous instance chunks (random) so the precomputed constants are
reused and the merged report is identical for any parallelism degree:
shards are merged in enumeration order and every aggregate (counts,
histograms, first-N witness lists) is order-independent or
order-preserving. An exhaustive sweep smaller than ``SERIAL_BELOW``
instances runs its shards in-process, where a worker pool would cost more
than it saves. An in-process random sweep cuts no shards: it draws, runs
and tallies one instance at a time, straight into the report it returns.

An exhaustive shard is a batch of consecutive moduli of one width, up to
``BATCH_LANES`` instances in all (a bigger modulus is a batch alone),
whose instances all run through one call of the bit-sliced kernel, one
lane each. One oracle call checks every lane's outputs against the
reference arithmetic, and the report tallies the batch once; a lane that
fails either is run again through the scalar kernel, whose verdict the
report records. A random sweep runs each instance through the scalar
kernel, by one body (``_tally``) in-process and in a shard.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import __version__
from .errors import ContractViolation
from .modparams import MAX_WIDTH, ModulusParams, check_int, int_text, precompute
from .oracle import exhaustive_mismatches
from .pipeline import MulResult, mulmod_checked
from .shrink import NORMAL_CYCLE_CAP

__all__ = [
    "SweepConfig",
    "SweepReport",
    "exhaustive_sweep",
    "hunt_shrink_cycles",
    "random_sweep",
]

# The most instances one sweep may run, exhaustive or random; k <= 11 runs
# 2,861,214,706.
INSTANCE_CAP = 3_000_000_000
# Exhaustive sweeps of fewer instances run in-process whatever ``jobs``
# says. Measured on 2 vCPUs with 2**17-lane batches, in-process against a
# 2-worker pool, medians of 24 alternating rounds: k=7 (605,536 instances,
# 5 shards) 43.6 vs 68.2 ms, in-process faster in 20; k=3..7 (690,866)
# 49.9 vs 54.3 ms, in 15. k=8 (2,446,944) gains from the pool: 466 vs
# 310 ms, in-process faster in 0 of 8.
SERIAL_BELOW = 1_000_000
# An exhaustive shard runs consecutive moduli of one width through one
# sliced-kernel call, one oracle call and one tally, up to this many lanes
# (R * R per modulus) in all. Most of a batch's cost is a fixed overhead
# per bitwise operation, so every width through k=6 runs as one batch: a
# k=3..6 sweep makes 4 batches, where 2**15 lanes made 6. Measured
# in-process on 2 vCPUs, the sizes taking turns over 60 rounds: a k=3..6
# sweep takes 9.44 ms at 2**15, 8.91 at 2**16 and 8.40 at 2**17 (2**17
# faster than 2**15 in 56 rounds); a k=7 sweep 47.3 ms at 2**15 and 43.0
# at 2**17 (15 of 16). k=8 and k=9 get no slower; every k=9 modulus runs
# alone at either size (256**2 + 257**2 > 2**17). Traced peak memory of a
# k=3..6 sweep is 465 KiB at 2**15 and 919 KiB at 2**17. One size serves
# every width: 2**17 is the fastest of the three at k=3..6 and at k=7.
BATCH_LANES = 1 << 17
WITNESS_CAP = 100
# Eight histogram keys, "0".."7", because the benchmark's pinned report
# digests hold them; only buckets 0..NORMAL_CYCLE_CAP can be non-zero.
HIST_BUCKETS = 8
# A new report's zero tallies are copies of these, which is cheaper than
# building them (a one-instance random sweep builds one report).
_NO_CYCLES = dict.fromkeys(range(HIST_BUCKETS), 0)
_NO_RULES = dict.fromkeys(range(1, 7), 0)
SLICED_DISAGREES = "sliced kernel disagrees with mulmod_checked"


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
        """Check that each set field is an int, fill mode-dependent
        defaults, clear ``count`` and ``seed`` outside random mode, cap
        ``jobs`` at the CPU count and validate the result: widths up to
        ``MAX_WIDTH`` and a random ``count`` up to ``INSTANCE_CAP``."""
        k_min, k_max, n, count, seed, jobs = (
            self.k_min, self.k_max, self.n, self.count, self.seed, self.jobs
        )
        # None leaves a field unset, except jobs, which has no unset value.
        # check_int passes every value whose type is int, so only the
        # others need the call, and a config whose fields all pass this one
        # test needs none.
        if not (
            type(jobs) is int
            and (k_min is None or type(k_min) is int)
            and (k_max is None or type(k_max) is int)
            and (n is None or type(n) is int)
            and (count is None or type(count) is int)
            and (seed is None or type(seed) is int)
        ):
            for name, value in (
                ("k_min", k_min), ("k_max", k_max), ("n", n),
                ("count", count), ("seed", seed), ("jobs", jobs),
            ):
                if type(value) is not int and (value is not None or name == "jobs"):
                    check_int(name, value)
        if mode == "random":
            if n is None:
                raise ContractViolation("random sweep requires n")
            if count is None or count < 1:
                raise ContractViolation(f"count >= 1 violated (count={int_text(count)})")
            if count > INSTANCE_CAP:
                raise _over_cap(count)
            if seed is None:
                raise ContractViolation("random sweep requires a seed")
            k_min = n if k_min is None else k_min
            k_max = n if k_max is None else k_max
        else:
            k_min = 3 if k_min is None else k_min
            k_max = 6 if k_max is None else k_max
            # An exhaustive sweep draws nothing, so its report echoes neither.
            count = seed = None
        # The sweep cuts its shards for the workers it gets, not for more.
        if jobs > 1:
            jobs = min(jobs, os.cpu_count() or 1)
        # precompute's width bound, checked before anything is drawn or
        # enumerated; an exhaustive sweep without n runs at width k.
        if n is not None and n > MAX_WIDTH:
            raise ContractViolation(f"n <= {MAX_WIDTH} violated (n={int_text(n)})")
        if k_max > MAX_WIDTH:
            raise ContractViolation(f"k <= {MAX_WIDTH} violated (k_max={int_text(k_max)})")
        if k_min < 3:
            raise ContractViolation(f"k >= 3 violated (k_min={int_text(k_min)})")
        if k_max < k_min:
            raise ContractViolation(
                f"k_min <= k_max violated ({int_text(k_min)} > {int_text(k_max)})"
            )
        if n is not None and n < k_max:
            raise ContractViolation(f"k <= n violated (k_max={k_max}, n={int_text(n)})")
        if jobs < 1:
            raise ContractViolation(f"jobs >= 1 violated (jobs={int_text(jobs)})")
        config = _bare_config()
        object.__setattr__(config, "__dict__", {
            "k_min": k_min, "k_max": k_max, "n": n,
            "count": count, "seed": seed, "jobs": jobs,
        })
        return config

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


# ``resolved`` builds its result from C, a bare instance given its field
# dict: the frozen dataclass's __init__ sets each field through a
# Python-level object.__setattr__ call.
_bare_config = functools.partial(object.__new__, SweepConfig)


def _over_cap(instances: int) -> ContractViolation:
    return ContractViolation(
        f"instance cap exceeded: sweep would run {int_text(instances)} instances, "
        f"cap is {INSTANCE_CAP}"
    )


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _params(R: int, n: int) -> ModulusParams | str:
    """precompute(R, n), or the failure reason of every instance needing it."""
    try:
        return precompute(R, n)
    except Exception as exc:
        return _reason(exc)


def _check(n: int, R: int, A: int, B: int,
           params: ModulusParams) -> tuple[MulResult | None, str | None]:
    """One instance through ``mulmod_checked``: (result, failure reason).

    The result is None when the kernel raised, the reason None when the
    instance passed the oracle.
    """
    try:
        result, ok = mulmod_checked(A, B, R, n, params=params)
    except Exception as exc:
        # Any exception is a failed instance, not an aborted sweep.
        return None, _reason(exc)
    return result, None if ok else "residue mismatch"


def _witness(n: int, R: int, A: int, B: int, **extra) -> dict:
    return {"n": n, "r": f"{R:X}", "a": f"{A:X}", "b": f"{B:X}", **extra}


def _lanes(mask: int):
    """The set bits of a lane mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class SweepReport:
    """Sweep tally plus the machine-readable document.

    Each shard fills one, an exhaustive shard with ``add_moduli`` and a
    random one with ``add`` per instance. The entry point returns the
    first shard as the report, with the later shards merged into it in
    enumeration order and ``config`` set to the sweep's header; an
    in-process random sweep fills one report, header first.
    """

    config: dict = field(default_factory=dict)
    instances: int = 0
    failures_total: int = 0
    failures: list[dict] = field(default_factory=list)
    cycle_histogram: dict[int, int] = field(default_factory=_NO_CYCLES.copy)
    rule_usage: dict[int, int] = field(default_factory=_NO_RULES.copy)
    # The first instance reaching the maximum, as (n, R, A, B); None until
    # one succeeds. ``max_cycles_witness`` formats it when it is read.
    max_cycles: int = 0
    max_cycles_instance: tuple[int, int, int, int] | None = None
    cycle_witnesses: list[dict] = field(default_factory=list)
    cycle_witnesses_total: int = 0
    wall_time_s: float = 0.0

    def add(self, n: int, R: int, A: int, B: int, params: ModulusParams | str) -> None:
        """Run one instance through the checked kernel and tally it; a str
        ``params`` is the reason ``_params`` could not build them."""
        self.instances += 1
        if isinstance(params, str):
            self._fail(n, R, A, B, params)
            return
        result, reason = _check(n, R, A, B, params)
        if result is not None:
            cycles = result.shrink_cycles
            self.cycle_histogram[cycles] += 1
            self.rule_usage[result.squeeze_rule] += 1
            if self.max_cycles_instance is None or cycles > self.max_cycles:
                self.max_cycles = cycles
                self.max_cycles_instance = (n, R, A, B)
            if cycles == NORMAL_CYCLE_CAP:
                self.cycle_witnesses_total += 1
                if len(self.cycle_witnesses) < WITNESS_CAP:
                    self.cycle_witnesses.append(_witness(n, R, A, B, cycles=cycles))
        if reason is not None:
            self._fail(n, R, A, B, reason)

    def add_moduli(self, n: int, moduli: list[tuple[int, ModulusParams | str]]) -> None:
        """Run every (A, B) pair of each (R, params) of one width through
        the bit-sliced kernel in one batch, and tally them in the order
        ``add`` would: modulus by modulus, lane ``A*R + B`` by lane.

        A lane that breaks a sliced check or the oracle is run again
        through ``mulmod_checked``, whose result and reason are recorded;
        if that run passes, the lane fails as a disagreement. A str
        ``params`` (the reason ``_params`` could not build them), or an
        exception from the sliced kernel or the oracle on that modulus,
        fails every lane of the modulus with that reason: a batch holding
        such a modulus runs again one modulus at a time, so that only that
        modulus fails.
        """
        reason = next((params for _, params in moduli if isinstance(params, str)), None)
        if reason is None:
            from . import sliced  # imported here: random sweeps never need it

            try:
                run = sliced.run_moduli([params for _, params in moduli])
                # the lanes to re-check: those flagged and those the oracle rejects
                suspects = run.flagged
                for lane in exhaustive_mismatches(run.p, run.q, [R for R, _ in moduli]):
                    suspects |= 1 << lane
            except Exception as exc:
                # Any exception fails the modulus, not the sweep.
                reason = _reason(exc)
            else:
                self._tally_batch(n, moduli, run, suspects)
                return
        if len(moduli) > 1:
            for modulus in moduli:
                self.add_moduli(n, [modulus])
            return
        R, _ = moduli[0]
        self.instances += R * R
        self._fail_modulus(n, R, reason)

    def _tally_batch(self, n: int, moduli: list[tuple[int, ModulusParams]],
                     run, suspects: int) -> None:
        """Tally a batch's sliced run, re-checking the ``suspects`` lanes
        through ``mulmod_checked``. The moduli own the run's segments, in
        order."""
        starts = list(itertools.accumulate((R * R for R, _ in moduli), initial=0))
        self.instances += starts.pop()

        def locate(lane: int) -> tuple[int, ModulusParams, int, int]:
            """(R, params, A, B) of a batch lane."""
            i = bisect_right(starts, lane) - 1
            R, params = moduli[i]
            return R, params, *divmod(lane - starts[i], R)

        cycles = [mask & ~suspects for mask in run.cycles]
        rules = [mask & ~suspects for mask in run.rules]
        for lane in _lanes(suspects):
            R, params, A, B = locate(lane)
            result, reason = _check(n, R, A, B, params)
            if result is not None:
                cycles[result.shrink_cycles] |= 1 << lane
                rules[result.squeeze_rule - 1] |= 1 << lane
            self._fail(n, R, A, B, reason or SLICED_DISAGREES)

        for count, mask in enumerate(cycles):
            self.cycle_histogram[count] += mask.bit_count()
        for rule, mask in enumerate(rules, 1):
            self.rule_usage[rule] += mask.bit_count()
        most = max((count for count, mask in enumerate(cycles) if mask), default=None)
        if most is not None and (self.max_cycles_instance is None or most > self.max_cycles):
            self.max_cycles = most
            R, _, A, B = locate(next(_lanes(cycles[most])))
            self.max_cycles_instance = (n, R, A, B)
        heavy = cycles[NORMAL_CYCLE_CAP]
        self.cycle_witnesses_total += heavy.bit_count()
        room = WITNESS_CAP - len(self.cycle_witnesses)
        for lane in itertools.islice(_lanes(heavy), room):
            R, _, A, B = locate(lane)
            self.cycle_witnesses.append(_witness(n, R, A, B, cycles=NORMAL_CYCLE_CAP))

    def _fail(self, n: int, R: int, A: int, B: int, reason: str) -> None:
        self.failures_total += 1
        if len(self.failures) < WITNESS_CAP:
            self.failures.append(_witness(n, R, A, B, reason=reason))

    def _fail_modulus(self, n: int, R: int, reason: str) -> None:
        """Fail every (A, B) pair of modulus R with the same reason."""
        self.failures_total += R * R
        for lane in range(min(R * R, WITNESS_CAP - len(self.failures))):
            self.failures.append(_witness(n, R, *divmod(lane, R), reason=reason))

    def merge(self, other: "SweepReport") -> None:
        """Fold in the tally of a shard that comes later in enumeration order."""
        self.instances += other.instances
        self.failures_total += other.failures_total
        self.cycle_witnesses_total += other.cycle_witnesses_total
        for cycles, count in other.cycle_histogram.items():
            self.cycle_histogram[cycles] += count
        for rule, count in other.rule_usage.items():
            self.rule_usage[rule] += count
        self.failures.extend(other.failures[: WITNESS_CAP - len(self.failures)])
        self.cycle_witnesses.extend(
            other.cycle_witnesses[: WITNESS_CAP - len(self.cycle_witnesses)]
        )
        if self.max_cycles_instance is None or other.max_cycles > self.max_cycles:
            self.max_cycles = other.max_cycles
            self.max_cycles_instance = other.max_cycles_instance

    @property
    def max_cycles_witness(self) -> dict | None:
        """The report's witness of ``max_cycles_instance``, formatted when
        read: most sweeps are never rendered, and most witnesses are
        replaced before they are."""
        instance = self.max_cycles_instance
        return None if instance is None else _witness(*instance)

    def ok(self) -> bool:
        return self.failures_total == 0

    def to_json_dict(self) -> dict:
        """The documented report schema. Wall time is excluded on purpose:
        reports from identical configs must be byte-identical."""
        return {
            "header": {
                "version": __version__,
                "config": self.config,
                "seed": self.config.get("seed"),
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


def _run_batch_task(task: tuple) -> SweepReport:
    """One exhaustive shard: every (A, B) pair of a run of moduli of one
    width, through one batched sliced-kernel call."""
    n, moduli = task
    shard = SweepReport()
    shard.add_moduli(n, [(R, _params(R, n)) for R in moduli])
    return shard


def _tally(report: SweepReport, n: int, instances: Iterable) -> SweepReport:
    """Run each drawn (R, A, B) of width n through ``add``, in order: the
    one per-instance body of a random sweep, in-process or in a shard."""
    for R, A, B in instances:
        report.add(n, R, A, B, _params(R, n))
    return report


def _run_random_chunk(task: tuple) -> SweepReport:
    """One pooled random shard: a chunk of consecutive drawn instances."""
    n, instances = task
    return _tally(SweepReport(), n, instances)


def _execute(tasks: Iterable, task_count: int, worker, config: SweepConfig,
             mode: str, started: float, jobs: int) -> SweepReport:
    """Run the ``task_count`` tasks over ``jobs`` workers, never more than
    there are tasks (in-process for one). The first shard becomes the
    report and the rest merge into it in task order; the header is set
    last. In-process, a task is taken from ``tasks`` only when the one
    before it has run."""
    jobs = min(jobs, task_count)
    if jobs <= 1:
        shards = map(worker, tasks)
        report = next(shards)
        for shard in shards:
            report.merge(shard)
    else:
        import multiprocessing  # imported here: serial sweeps never need it

        with multiprocessing.Pool(processes=jobs) as pool:
            shards = pool.imap(worker, tasks, chunksize=1)
            report = next(shards)
            for shard in shards:
                report.merge(shard)
    report.config = config.canonical(mode)
    report.wall_time_s = time.perf_counter() - started
    return report


def _sum_of_squares(m: int) -> int:
    """1**2 + 2**2 + ... + m**2, in closed form."""
    return m * (m + 1) * (2 * m + 1) // 6


def _batches(k: int, n: int) -> list[tuple]:
    """The shards of width k: runs of consecutive moduli of at most
    ``BATCH_LANES`` lanes together; a bigger modulus runs alone."""
    tasks, start, lanes = [], 1 << (k - 1), 0
    for R in range(1 << (k - 1), 1 << k):
        if lanes and lanes + R * R > BATCH_LANES:
            tasks.append((n, range(start, R)))
            start, lanes = R, 0
        lanes += R * R
    tasks.append((n, range(start, 1 << k)))
    return tasks


def _sweep_moduli(config: SweepConfig, mode: str) -> SweepReport:
    """Every (R, A, B) with R in the k range, in (k, R, A, B) order."""
    config = config.resolved(mode)
    started = time.perf_counter()
    # R runs from 2**(k_min-1) to 2**k_max - 1, with R * R instances each.
    expected = _sum_of_squares((1 << config.k_max) - 1) - _sum_of_squares(
        (1 << (config.k_min - 1)) - 1
    )
    if expected > INSTANCE_CAP:
        raise _over_cap(expected)
    tasks = []
    for k in range(config.k_min, config.k_max + 1):
        n = config.n if config.n is not None else k
        tasks += _batches(k, n)
    jobs = 1 if expected < SERIAL_BELOW else config.jobs
    return _execute(tasks, len(tasks), _run_batch_task, config, mode, started, jobs)


def exhaustive_sweep(config: SweepConfig) -> SweepReport:
    """Check every (R, A, B) with R in the k range against the reference.

    Enumeration order is (k, R, A, B) lexicographic; witnesses keep that
    order no matter how many workers run the shards.
    """
    return _sweep_moduli(config, "verify")


def hunt_shrink_cycles(config: SweepConfig) -> SweepReport:
    """``exhaustive_sweep`` with its report labelled ``hunt``.

    Every sweep lists the instances that needed 4 shrink cycles (the most
    observed is 3) and fails one that needs more. Whether this command
    stays is a decision for after the shrink-cycle certificate.
    """
    return _sweep_moduli(config, "hunt")


def _draws(config: SweepConfig) -> Iterator[tuple[int, int, int]]:
    """The sweep's ``count`` instances (R, A, B), in order, from one
    generator seeded with ``seed``; each is drawn only when asked for."""
    n, k_min, k_max = config.n, config.k_min, config.k_max
    rng = random.Random(config.seed)
    randrange = rng.randrange
    full_width = k_min == k_max == n
    for _ in range(config.count):
        k = n if full_width else rng.randint(k_min, k_max)
        R = randrange(1 << (k - 1), 1 << k)
        yield R, randrange(R), randrange(R)


def _random_chunks(config: SweepConfig, size: int) -> Iterator[tuple]:
    """The pooled shards' tasks: ``(n, instances)`` with ``size``
    consecutive draws each (the last may hold fewer), cut from ``_draws``
    only when the task is asked for."""
    draws = _draws(config)
    while instances := list(itertools.islice(draws, size)):
        yield config.n, instances


def random_sweep(config: SweepConfig) -> SweepReport:
    """Run seeded random instances at width n against the reference.

    Instances come from one generator, so the sequence is a pure function
    of the seed and the config. In-process, each instance is drawn only
    after the one before it has been run and tallied, straight into the
    report returned. On a pool, consecutive draws are cut into chunks, one
    shard each, and the shards merge in draw order, so the report is the
    same bytes at any parallelism degree.
    """
    config = config.resolved("random")
    started = time.perf_counter()
    count, jobs = config.count, config.jobs
    if jobs > 1 and count > 1:
        # two chunks or more, so two workers or more: one chunk would run
        # in-process anyway
        size = max(1, min(500, -(-count // (jobs * 8))))
        return _execute(
            _random_chunks(config, size), -(-count // size), _run_random_chunk,
            config, "random", started, jobs,
        )
    report = _tally(SweepReport(config.canonical("random")), config.n, _draws(config))
    report.wall_time_s = time.perf_counter() - started
    return report
