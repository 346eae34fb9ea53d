"""The traced run: per-layer metrics measured from outside the program.

``stage_pass`` repeats ``mulmod_checked`` stage by stage through the
public calls of each module, with one span per call, and checks that the
composition returns what ``mulmod_checked`` returns on every instance.
``traced_run`` adds the harness (the workload's sweep at jobs=1, with the
harness's calls to ``mulmod_checked`` wrapped in a timer, and at jobs=2),
the CLI (``cli.main`` against ``mulmod(trace=True)``) and a count of the
BitVec objects ``mulmod_checked`` makes, on the same instances, and
derives every per-layer metric.

Spans are kept in memory as int64 ``time.perf_counter_ns`` stamps and
written out only after the measurement has ended. All times are host
wall-clock times.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import sub
from pathlib import Path

from csmulmod import (
    BitVec,
    InvariantViolation,
    fold_pair,
    mulmod,
    mulmod_checked,
    precompute,
    qcu_apply,
    ref_mulmod,
    run_loop,
    run_shrink,
    shift_left_operand,
    shift_right_result,
    squeeze_topup,
)
from csmulmod import harness

from workloads import cli_answer_ok, cli_argv, cli_call

__all__ = ["SPANS", "StagePass", "stage_pass", "traced_run"]

# Stamps recorded per instance, in this order:
#   0-1 precompute (zero when the modulus's params are reused)
#   2-3 mulmod_checked
#   4-10 the boundaries of the six stage calls of the composition
STAMPS = 11
SPANS = (  # name, start stamp, end stamp, parent span
    ("precompute", 0, 1, None),
    ("mulmod_checked", 2, 3, None),
    ("instance", 4, 10, None),
    ("shift_left_operand", 4, 5, "instance"),
    ("run_loop", 5, 6, "instance"),
    ("run_shrink", 6, 7, "instance"),
    ("squeeze_topup+qcu_apply", 7, 8, "instance"),
    ("shift_right_result", 8, 9, "instance"),
    ("fold_pair+ref_mulmod", 9, 10, "instance"),
)


@dataclass
class StagePass:
    """Spans and exact counts of one stage-by-stage pass."""

    stamps: array = field(default_factory=lambda: array("q"))
    wall_ns: int = 0
    instances: int = 0
    precompute_calls: int = 0
    steps: int = 0
    cycles: int = 0
    failed: int = 0
    mismatched: int = 0
    histogram: Counter = field(default_factory=Counter)
    rules: Counter = field(default_factory=Counter)

    def total_ns(self, name: str) -> int:
        _, start, end, _ = next(s for s in SPANS if s[0] == name)
        return sum(map(sub, self.stamps[end::STAMPS], self.stamps[start::STAMPS]))


def stage_pass(groups) -> StagePass:
    """Run every instance twice: through ``mulmod_checked``, and through
    its stages called one by one, timing each call.

    ``groups`` yields (n, R, pairs); params are built once per group, as
    the harness builds them once per shard.
    """
    ns = time.perf_counter_ns
    out = StagePass()
    start = ns()
    for n, R, pairs in groups:
        p0 = ns()
        params = precompute(R, n)
        p1 = ns()
        out.precompute_calls += 1
        for A, B in pairs:
            out.instances += 1
            try:
                c0 = ns()
                ref, ref_ok = mulmod_checked(A, B, R, n, params=params)
                c1 = ns()
                t0 = ns()
                b = shift_left_operand(B, params)
                t1 = ns()
                acc, _ = run_loop(A, b, params)
                t2 = ns()
                acc, shrink = run_shrink(acc, params)
                t3 = ns()
                acc, squeeze = qcu_apply(squeeze_topup(acc), params)
                t4 = ns()
                p, q = shift_right_result(acc.p, acc.q, params)
                t5 = ns()
                ok = p < R and q < R and fold_pair(p, q, R) == ref_mulmod(A, B, R)
                t6 = ns()
            except (ValueError, InvariantViolation):
                out.failed += 1
                continue
            out.stamps.extend((p0, p1, c0, c1, t0, t1, t2, t3, t4, t5, t6))
            p0 = p1 = 0
            out.steps += params.k
            out.cycles += shrink.cycles
            out.histogram[shrink.cycles] += 1
            out.rules[squeeze.rule] += 1
            if not ok:
                out.failed += 1
            if (p, q, shrink.cycles, squeeze.rule, ok) != (
                ref.p, ref.q, ref.shrink_cycles, ref.squeeze_rule, ref_ok
            ):
                out.mismatched += 1
    out.wall_ns = ns() - start
    return out


def _gen0() -> int:
    """Gen-0 collections so far, after a full collection, so that a
    difference of two reads counts only what happened between them."""
    gc.collect()
    return gc.get_stats()[0]["collections"]


@contextlib.contextmanager
def _counting_bitvecs(count: list[int]):
    """Wrap ``BitVec.__init__`` so that each BitVec made adds one to
    ``count[0]``; restore it on exit."""
    inner = BitVec.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        inner(self, *args, **kwargs)

    BitVec.__init__ = counted
    try:
        yield
    finally:
        BitVec.__init__ = inner


@contextlib.contextmanager
def _timing_harness_calls(total_ns: list[int]):
    """Swap the harness's reference to ``mulmod_checked`` for a wrapper
    that adds each call's time to ``total_ns[0]``; restore it on exit."""
    inner = harness.mulmod_checked

    def timed(*args, **kwargs):
        t0 = time.perf_counter_ns()
        result = inner(*args, **kwargs)
        total_ns[0] += time.perf_counter_ns() - t0
        return result

    harness.mulmod_checked = timed
    try:
        yield
    finally:
        harness.mulmod_checked = inner


def _timed_sweep(workload, seed: int, jobs: int) -> tuple[object, float]:
    """One sweep call: (report, wall seconds)."""
    t0 = time.perf_counter()
    report = workload.trace_sweep(seed, jobs)
    return report, time.perf_counter() - t0


def _cli_pass(sample) -> tuple[list[int], int, int]:
    """``cli.main`` per instance: (call ns, failed calls, gen-0 collections)."""
    times, failed = [], 0
    g0 = _gen0()
    for n, R, A, B in sample:
        argv = cli_argv(n, R, A, B)
        t0 = time.perf_counter_ns()
        code, text = cli_call(argv)
        times.append(time.perf_counter_ns() - t0)
        if code != 0 or not cli_answer_ok(text, R, A, B):
            failed += 1
    return times, failed, _gen0() - g0


def _bitvecs_made(sample) -> int:
    """BitVec objects made by ``mulmod_checked`` over the sample."""
    count = [0]
    with _counting_bitvecs(count):
        for n, R, A, B in sample:
            mulmod_checked(A, B, R, n)
    return count[0]


def _mulmod_traced_pass(sample) -> list[int]:
    times = []
    for n, R, A, B in sample:
        t0 = time.perf_counter_ns()
        mulmod(A, B, R, n, trace=True)
        times.append(time.perf_counter_ns() - t0)
    return times


def _report_matches(report, sp: StagePass) -> bool:
    hist = {c: k for c, k in report.cycle_histogram.items() if k}
    rules = {r: k for r, k in report.rule_usage.items() if k}
    return (
        report.instances == sp.instances
        and hist == dict(sp.histogram)
        and rules == dict(sp.rules)
    )


def _write_spans(sp: StagePass, path: Path, meta: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_suffix(".bin"), "wb") as fh:
        sp.stamps.tofile(fh)
    meta = dict(
        meta,
        clock="time.perf_counter_ns",
        dtype=f"int{8 * sp.stamps.itemsize} native byte order",
        stamps_per_row=STAMPS,
        rows=len(sp.stamps) // STAMPS,
        spans=[{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in SPANS],
        note="one row per instance; a zero precompute pair means params were reused",
    )
    path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")


@dataclass
class TracedResult:
    attempted: int
    failed: int
    golden: set[str]
    metrics: dict[str, float]
    reasons: list[str]


def traced_run(workload, seed: int, spans_path: Path) -> TracedResult:
    sp = stage_pass(workload.trace_groups(seed))
    in_checked = [0]
    with _timing_harness_calls(in_checked):
        report1, sweep1_s = _timed_sweep(workload, seed, jobs=1)
    report2, sweep2_s = _timed_sweep(workload, seed, jobs=2)
    sample = workload.trace_cli_sample(seed)
    cli_ns, cli_failed, gc_cli = _cli_pass(sample)
    mul_ns = _mulmod_traced_pass(sample)
    bitvecs = _bitvecs_made(sample)
    _write_spans(sp, spans_path, {"workload": workload.name, "seed": seed})

    checks = {
        "instances failed the oracle or raised": sp.failed,
        "instances whose composition differs from mulmod_checked": sp.mismatched,
        "sweep failures at jobs=1": report1.failures_total,
        "sweep failures at jobs=2": report2.failures_total,
        "sweep reports that differ between jobs=1 and jobs=2": int(
            report1.to_json_bytes() != report2.to_json_bytes()
        ),
        "sweep reports whose histogram or rule usage differs from the stage pass": int(
            not _report_matches(report1, sp)
        ),
        "CLI answers that failed the oracle": cli_failed,
    }
    reasons = [f"{count} {what}" for what, count in checks.items() if count]
    golden = workload.traced_golden((report1, report2))
    attempted = sp.instances + report1.instances + report2.instances + len(sample)
    failed = sum(checks.values())
    if not sp.steps:  # every instance raised: there are no spans to measure
        return TracedResult(attempted, failed, golden, {}, reasons)

    n = sp.instances
    loop = sp.total_ns("run_loop")
    shrink = sp.total_ns("run_shrink")
    squeeze = sp.total_ns("squeeze_topup+qcu_apply")
    oracle = sp.total_ns("fold_pair+ref_mulmod")
    pre = sp.total_ns("precompute")
    shift = sp.total_ns("shift_left_operand") + sp.total_ns("shift_right_result")
    composed = sp.total_ns("instance")
    checked = sp.total_ns("mulmod_checked")
    stages = pre + composed
    cli_us = sum(cli_ns) / len(cli_ns) / 1e3
    render_us = cli_us - sum(mul_ns) / len(mul_ns) / 1e3
    metrics = {
        "mainloop.steps": sp.steps,
        "mainloop.us_per_step": loop / 1e3 / sp.steps,
        "mainloop.share": loop / stages,
        "shrink.us_per_call": shrink / 1e3 / n,
        "shrink.share": shrink / stages,
        "shrink.cycles_mean": sp.cycles / n,
        "squeeze.us_per_call": squeeze / 1e3 / n,
        "squeeze.share": squeeze / stages,
        "modparams.precompute_calls": sp.precompute_calls,
        "modparams.precompute_us": pre / 1e3 / sp.precompute_calls,
        "modparams.shift_us": shift / 1e3 / n,
        "oracle.us_per_call": oracle / 1e3 / n,
        "oracle.share": oracle / stages,
        "pipeline.overhead_us": (checked - composed) / 1e3 / n,
        "harness.overhead_share": (sweep1_s - in_checked[0] / 1e9) / sweep1_s,
        "harness.pool_speedup": sweep1_s / sweep2_s,
        "cli.render_us": render_us,
        "cli.share": render_us / cli_us,
        "bitcore.gc0_per_1k": gc_cli * 1000 / len(sample),
        "bitcore.bitvecs_per_instance": bitvecs / len(sample),
        "trace.overhead_us": (sp.wall_ns - 2 * checked - pre) / 1e3 / n,
    }
    return TracedResult(attempted, failed, golden, metrics, reasons)
