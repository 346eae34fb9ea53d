"""Smoke tests for the benchmark, on tiny versions of its workloads.

    python3 -m pytest perfbench -q

Each workload must run traced and untraced and print every metric that
BENCHMARK.json declares; the gate must refuse to report numbers when a
golden digest is tampered with or when the kernel is made to fail.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import calibrate
import run

run.load_program()

import csmulmod.pipeline  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FULL = workloads.WORKLOADS
# Their golden digests are recorded in digests.json beside the full ones.
TINY = {
    "exhaustive-k3to6": dataclasses.replace(FULL["exhaustive-k3to6"], k_max=4, cli_sample=5),
    "random-n256": dataclasses.replace(
        FULL["random-n256"], golden_count=4, trace_count=4, cli_sample=2
    ),
    "cli-traced-n64": dataclasses.replace(
        FULL["cli-traced-n64"], min_samples=5, golden_count=4, trace_count=4, cli_sample=4
    ),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def bench(capsys, name: str, trace: int) -> tuple[int, dict, str]:
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric(tiny, capsys, name, trace):
    code, result, out = bench(capsys, name, trace)
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(declared)
    for metric in declared:
        assert f"\n{metric} = " in out


def test_sampling_runs_the_reference_task_until_the_body_ends():
    with calibrate.sampling() as samples:
        time.sleep(3 * calibrate.SAMPLE_EVERY_S)
    taken = len(samples)
    time.sleep(2 * calibrate.SAMPLE_EVERY_S)
    assert 2 <= taken == len(samples)
    assert all(t > 0 for t in samples)


def test_gate_trips_on_tampered_digest(tiny, capsys, monkeypatch, tmp_path):
    digests = json.loads(run.DIGESTS_PATH.read_text())
    digests[TINY["cli-traced-n64"].golden_key] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS_PATH", tampered)

    code, result, out = bench(capsys, "cli-traced-n64", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 0
    assert result["metrics"] == {}
    assert "golden digest" in out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_gate_trips_on_forced_failure(tiny, capsys, monkeypatch, name, trace):
    real = csmulmod.pipeline.shift_right_result

    def off_by_one(p, q, params):
        p_out, q_out = real(p, q, params)
        return p_out, (q_out + 1) % params.modulus

    # Sweep pool workers are forked, so they inherit the patch.
    monkeypatch.setattr(csmulmod.pipeline, "shift_right_result", off_by_one)
    code, result, _ = bench(capsys, name, trace)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"] == {}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-traced-n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "cannot import csmulmod" in proc.stderr
