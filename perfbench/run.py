"""Run one csmulmod benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the ``src`` directory of the checkout this
file sits in; nothing needs installing. ``--trace 0`` times the workload
untraced for S seconds and prints the end-to-end metrics. ``--trace 1``
runs the traced stage-by-stage pass (tracing.py) and prints the
per-layer metrics. Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run whose
outputs fail the oracle, or whose golden output digest differs from the
one recorded in ``digests.json``, reports ``correct: false`` with no
metrics and exits 1. The full record of each run, with its environment,
is written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15
# throughput_ips is the median rate over windows of at least this many
# seconds, so that a burst of load from other processes on the machine
# moves it less than a total over the region would.
WINDOW_S = 0.5
P99_WINDOW = 1000


def load_program() -> None:
    """Import csmulmod from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import csmulmod
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import csmulmod from {src}: {exc}") from None
    if not Path(csmulmod.__file__).resolve().is_relative_to(src):
        raise SystemExit(
            f"perfbench: csmulmod was imported from {csmulmod.__file__}, not from {src}"
        )


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout;
    None without a .git or when the branch's ref is packed."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head.removeprefix("ref: ")).read_text().strip()
        return head
    except OSError:
        return None


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (the
    sweep pool's workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _setup_times(name: str, seed: int) -> list[float]:
    """Set-up times of the workload, each in a fresh interpreter and scaled
    to reference speed by the reference task run after it."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        setup_s, probe_s = map(float, proc.stdout.split()[-2:])
        times.append(at_reference_speed(setup_s, probe_s))
    return times


def _window_rates(marks: list[tuple[float, int]], times_s: list[float]) -> list[float]:
    """Instances per second of call time in consecutive windows of calls,
    each closed at the first call that ends WINDOW_S or more after the
    window began; the calls after the last such one form a window too."""
    rates, begin_t, begin_i, done = [], 0.0, 0, 0
    for i, (t, attempted) in enumerate(marks, 1):
        if t - begin_t >= WINDOW_S or i == len(marks):
            rates.append((attempted - done) / sum(times_s[begin_i:i]))
            begin_t, begin_i, done = t, i, attempted
    return rates


def _quantile99(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _p99(values: list[float]) -> float:
    """The median of the p99s of consecutive P99_WINDOW-call windows, each
    of which has ten samples beyond its p99; the plain p99 of all calls
    when there are fewer. Bursts of load from other processes on the
    machine move the median of windows less than the p99 of the whole."""
    windows = [
        values[i : i + P99_WINDOW] for i in range(0, len(values) - P99_WINDOW + 1, P99_WINDOW)
    ]
    if not windows:
        return _quantile99(values)
    return statistics.median(_quantile99(w) for w in windows)


def timed_run(workload, seed: int, seconds: float):
    """The untraced run: (outcome, end-to-end metrics, details)."""
    inputs = workload.build(seed)
    warm_ok = workload.warm_up(inputs)
    outcome = workload.run(inputs, seconds)
    if not warm_ok:
        outcome.fail("warm-up instance failed the oracle")
    rss_mb = _peak_rss_mb()  # read before the set-up probes add children
    setup = _setup_times(workload.name, seed)
    latencies = [
        at_reference_speed(t, probe) for t, probe in zip(outcome.latencies_s, outcome.probes_s)
    ]
    rates = _window_rates(outcome.marks, latencies)
    p99 = _p99(latencies)
    metrics = {
        "throughput_ips": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    details = {
        "throughput_windows": len(rates),
        "probe_median_ms": statistics.median(outcome.probes_s) * 1e3,
        "latency_samples": len(latencies),
        "samples_above_p99": sum(x > p99 for x in latencies),
        "failure_ratio": outcome.failed / max(outcome.attempted, 1),
        "setup_probes_s": setup,
        "timed_wall_s": outcome.wall_s,
    }
    return outcome, metrics, details


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    load_program()
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "seed": args.seed,
    }

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}"
        result = tracing.traced_run(workload, args.seed, spans)
        attempted, failed = result.attempted, result.failed
        golden, metrics, reasons = result.golden, result.metrics, result.reasons
        details = {"spans": os.path.relpath(spans, ROOT) + ".{bin,json}"}
        declared = spec["per_layer"]
    else:
        outcome, metrics, details = timed_run(workload, args.seed, args.seconds)
        attempted, failed = outcome.attempted, outcome.failed
        golden, reasons = outcome.golden, outcome.reasons
        declared = spec["end_to_end"]
    env["loadavg_end"] = os.getloadavg()

    expected = json.loads(DIGESTS_PATH.read_text()).get(workload.golden_key)
    golden_ok = golden == {expected}
    if not golden_ok:
        reasons = reasons + [
            f"golden digest of {workload.golden_key!r}: got {sorted(golden)}, recorded {expected}"
        ]
    correct = failed == 0 and attempted > 0 and golden_ok
    units = {m["name"]: m["unit"] for m in declared}
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "golden": {"key": workload.golden_key, "recorded": expected, "observed": sorted(golden)},
        "details": details,
        "metrics": metrics,
    }
    out_file = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} record={os.path.relpath(out_file, ROOT)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for reason in reasons:
        print(f"FAILED: {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                }
                if correct
                else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
