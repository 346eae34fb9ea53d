import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from csmulmod import (
    MAX_WIDTH,
    ContractViolation,
    SweepConfig,
    SweepReport,
    exhaustive_sweep,
    hunt_shrink_cycles,
    mulmod,
    random_sweep,
)
from csmulmod import harness, sliced
from csmulmod.cli import EXIT_VERIFICATION, main
from csmulmod.harness import INSTANCE_CAP, SLICED_DISAGREES, WITNESS_CAP
from csmulmod.modparams import precompute


def _instances(k_min: int, k_max: int) -> int:
    """How many instances an exhaustive sweep of the k range runs."""
    return sum(R * R for k in range(k_min, k_max + 1) for R in range(1 << (k - 1), 1 << k))


class TestExhaustiveSweep:
    def test_smallest_width_counts(self):
        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=3))
        expected = sum(R * R for R in range(4, 8))
        assert report.instances == expected == 126
        assert report.failures_total == 0
        assert sum(report.cycle_histogram.values()) == report.instances
        assert sum(report.rule_usage.values()) == report.instances
        assert report.ok()

    def test_range_sweep_is_clean(self):
        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=5))
        assert report.failures_total == 0
        assert report.max_cycles <= 4
        assert report.max_cycles_witness is not None

    def test_width_override(self):
        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=4, n=8))
        assert report.failures_total == 0
        assert report.instances == sum(R * R for R in range(4, 16))

    def test_instance_cap(self):
        with pytest.raises(ContractViolation, match="instance cap"):
            exhaustive_sweep(SweepConfig(k_min=3, k_max=12))
        # the count in the message is exact, here and from a higher k_min
        for k_min, k_max in ((3, 12), (12, 12), (5, 13)):
            count = _instances(k_min, k_max)
            with pytest.raises(ContractViolation, match=f"would run {count} instances,"):
                exhaustive_sweep(SweepConfig(k_min=k_min, k_max=k_max))

    def test_batches_partition_each_width_within_the_lane_budget(self):
        budget = harness.BATCH_LANES
        for k, n in ((3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (7, 9), (8, 8), (9, 9)):
            tasks = harness._batches(k, n)
            assert {width for width, _ in tasks} == {n}
            # every width through k=6 is one sliced batch
            assert len(tasks) == 1 or k > 6
            moduli = [list(batch) for _, batch in tasks]
            assert sum(moduli, []) == list(range(1 << (k - 1), 1 << k))
            lanes = [sum(R * R for R in batch) for batch in moduli]
            for batch, size in zip(moduli, lanes):
                assert batch and (size <= budget or len(batch) == 1)
            # a batch closes only when its next modulus would not fit
            for batch, size, following in zip(moduli, lanes, moduli[1:]):
                assert size + following[0] ** 2 > budget

    def test_config_validation(self):
        with pytest.raises(ContractViolation, match="k >= 3"):
            exhaustive_sweep(SweepConfig(k_min=2, k_max=3))
        with pytest.raises(ContractViolation, match="k_min <= k_max"):
            exhaustive_sweep(SweepConfig(k_min=5, k_max=4))
        with pytest.raises(ContractViolation, match="k <= n"):
            exhaustive_sweep(SweepConfig(k_min=3, k_max=6, n=5))
        with pytest.raises(ContractViolation, match="jobs"):
            exhaustive_sweep(SweepConfig(k_min=3, k_max=3, jobs=0))
        # precompute's width bound, checked before the sweep starts
        with pytest.raises(ContractViolation, match=f"^n <= {MAX_WIDTH} violated"):
            exhaustive_sweep(SweepConfig(k_min=3, k_max=3, n=MAX_WIDTH + 1))
        with pytest.raises(ContractViolation, match=f"^k <= {MAX_WIDTH} violated"):
            hunt_shrink_cycles(SweepConfig(k_max=MAX_WIDTH + 1))
        assert SweepConfig(k_max=3, n=MAX_WIDTH).resolved("verify").n == MAX_WIDTH
        default = SweepConfig().resolved("verify")
        assert (default.k_min, default.k_max) == (3, 6)
        # a field that is not an int is the caller's error, named before
        # any default is filled in: not a report of failed instances, not
        # a bare TypeError, not a value taken as it is
        valid = {"k_min": 3, "k_max": 3, "n": 8, "count": 2, "seed": 1, "jobs": 1}
        for sweep in (exhaustive_sweep, hunt_shrink_cycles, random_sweep):
            for name in valid:
                for value in (float(valid[name]), True, str(valid[name])):
                    config = SweepConfig(**{**valid, name: value})
                    with pytest.raises(ContractViolation, match=f"^{name} must be an int"):
                        sweep(config)
            assert sweep(SweepConfig(**valid)).failures_total == 0


class TestDeterminism:
    def test_exhaustive_reports_ignore_count_and_seed(self):
        # only a random sweep draws; the others neither use nor echo them
        for sweep in (exhaustive_sweep, hunt_shrink_cycles):
            plain = sweep(SweepConfig(k_min=3, k_max=3))
            given = sweep(SweepConfig(k_min=3, k_max=3, count=2, seed=1))
            assert given.to_json_bytes() == plain.to_json_bytes()
            header = json.loads(given.to_json_bytes())["header"]
            assert header["seed"] is None
            assert (header["config"]["count"], header["config"]["seed"]) == (None, None)

    def test_repeat_run_is_byte_identical(self):
        cfg = SweepConfig(k_min=3, k_max=4)
        first = exhaustive_sweep(cfg).to_json_bytes()
        second = exhaustive_sweep(cfg).to_json_bytes()
        assert first == second

    def test_parallelism_does_not_change_the_report(self):
        for sweep in (exhaustive_sweep, hunt_shrink_cycles):
            serial = sweep(SweepConfig(k_min=3, k_max=4, jobs=1))
            parallel = sweep(SweepConfig(k_min=3, k_max=4, jobs=2))
            assert serial.to_json_bytes() == parallel.to_json_bytes()

    def test_lane_budget_does_not_change_the_report(self, monkeypatch):
        # 2**15 lanes cut k=6 into three batches and k=7 into many more
        # than 2**17 does; k=6 at n=8 is the shift path's cut width
        reports = {}
        for budget, k6_batches in ((1 << 15, 3), (1 << 17, 1)):
            monkeypatch.setattr(harness, "BATCH_LANES", budget)
            assert len(harness._batches(6, 8)) == k6_batches
            reports[budget] = [
                exhaustive_sweep(config).to_json_bytes()
                for config in (SweepConfig(k_min=3, k_max=7), SweepConfig(k_min=3, k_max=6, n=8))
            ]
        assert reports[1 << 15] == reports[1 << 17]

    def test_pool_above_the_serial_cutoff_does_not_change_the_report(self, monkeypatch):
        # k=7 runs in-process at the real cutoff; with the cutoff lowered
        # to its size, its shards go to two real 2-worker pools
        assert _instances(7, 7) < harness.SERIAL_BELOW
        monkeypatch.setattr(harness, "SERIAL_BELOW", _instances(7, 7))
        pools = []
        real_pool = multiprocessing.Pool

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on one CPU
        for sweep in (exhaustive_sweep, hunt_shrink_cycles):
            serial = sweep(SweepConfig(k_min=7, k_max=7, jobs=1))
            parallel = sweep(SweepConfig(k_min=7, k_max=7, jobs=2))
            assert serial.to_json_bytes() == parallel.to_json_bytes()
        assert pools == [{"processes": 2}] * 2

    @staticmethod
    def _in_process_pool(monkeypatch) -> tuple[list, list]:
        """Replace the pool with a fake that records its size and how many
        shards it gets, and runs them in-process: no process is started at
        any jobs value."""
        sizes, shards = [], []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, worker, tasks, chunksize=1):
                # a random sweep hands the pool a generator of its chunks
                tasks = list(tasks)
                shards.append(len(tasks))
                return map(worker, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        return sizes, shards

    def test_pool_never_gets_more_workers_than_shards(self, monkeypatch):
        sizes, _ = self._in_process_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 1 << 20)
        monkeypatch.setattr(harness, "SERIAL_BELOW", 0)
        sweeps = (
            (random_sweep, dict(n=8, count=2, seed=1), 2),
            (exhaustive_sweep, dict(k_min=3, k_max=5),
             sum(len(harness._batches(k, k)) for k in (3, 4, 5))),
        )
        for sweep, config, shards in sweeps:
            serial = sweep(SweepConfig(**config, jobs=1)).to_json_bytes()
            assert sizes == []
            assert sweep(SweepConfig(**config, jobs=1000)).to_json_bytes() == serial
            assert sizes == [shards]
            sizes.clear()

    def test_pool_never_gets_more_workers_than_cpus(self, monkeypatch):
        sizes, shards = self._in_process_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = dict(n=8, count=20000, seed=1)
        serial = random_sweep(SweepConfig(**config, jobs=1)).to_json_bytes()
        assert sizes == []
        for jobs in (2, 1000):
            assert random_sweep(SweepConfig(**config, jobs=jobs)).to_json_bytes() == serial
        # the chunks are cut for the 2 workers that run, whatever jobs asks
        assert sizes == [2, 2]
        assert shards == [40, 40]

    def test_sweep_below_the_serial_cutoff_starts_no_pool(self, monkeypatch):
        assert _instances(3, 7) < harness.SERIAL_BELOW
        serial = [
            sweep(SweepConfig(k_min=3, k_max=6, jobs=1))
            for sweep in (exhaustive_sweep, hunt_shrink_cycles)
        ]

        def no_pool(*args, **kwargs):
            raise RuntimeError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        for sweep, expected in zip((exhaustive_sweep, hunt_shrink_cycles), serial):
            report = sweep(SweepConfig(k_min=3, k_max=6, jobs=2))
            assert report.to_json_bytes() == expected.to_json_bytes()
        # random sweeps keep their pool at any size
        with pytest.raises(RuntimeError, match="a pool was started"):
            random_sweep(SweepConfig(n=16, count=20, seed=1, jobs=2))

    def test_random_repeat_and_parallelism(self):
        runs = [
            random_sweep(SweepConfig(n=16, count=300, seed=7, jobs=jobs))
            for jobs in (1, 1, 3)
        ]
        payloads = {r.to_json_bytes() for r in runs}
        assert len(payloads) == 1

    def test_random_shards_fold_into_the_first(self, monkeypatch):
        # count=40 at jobs=1 cuts 8 chunks run in-process; at jobs=2 they
        # run on the pool. The first shard becomes the report, so it must
        # be tallied once and carry the sweep's header.
        config = dict(n=16, count=40, seed=5)
        chunks = []
        run_chunk = harness._run_random_chunk

        def counted(task):
            chunks.append(len(task[1]))
            return run_chunk(task)

        monkeypatch.setattr(harness, "_run_random_chunk", counted)
        serial = random_sweep(SweepConfig(**config, jobs=1))
        assert chunks == [5] * 8
        monkeypatch.undo()
        pooled = random_sweep(SweepConfig(**config, jobs=2))
        header = SweepConfig(**config).resolved("random").canonical("random")
        for report in (serial, pooled):
            assert report.instances == 40
            assert report.config == header
            assert json.loads(report.to_json_bytes())["header"]["config"] == header
        assert serial.to_json_bytes() == pooled.to_json_bytes()

    def test_different_seeds_differ(self):
        a = random_sweep(SweepConfig(n=16, count=100, seed=1))
        b = random_sweep(SweepConfig(n=16, count=100, seed=2))
        assert a.to_json_bytes() != b.to_json_bytes()


class TestRandomSweep:
    def test_full_width_draws(self):
        report = random_sweep(SweepConfig(n=24, count=250, seed=42))
        assert report.instances == 250
        assert report.failures_total == 0
        assert report.ok()

    def test_shift_path_mix(self):
        # moduli drawn shorter than the working width, exercising the
        # scale-in/scale-out path at a realistic width
        report = random_sweep(
            SweepConfig(k_min=3, k_max=64, n=64, count=400, seed=9)
        )
        assert report.failures_total == 0

    def test_requires_seed_count_n(self):
        with pytest.raises(ContractViolation, match="seed"):
            random_sweep(SweepConfig(n=16, count=10))
        with pytest.raises(ContractViolation, match="count"):
            random_sweep(SweepConfig(n=16, seed=1))
        with pytest.raises(ContractViolation, match="requires n"):
            random_sweep(SweepConfig(count=10, seed=1))
        with pytest.raises(ContractViolation, match=f"^n <= {MAX_WIDTH} violated"):
            random_sweep(SweepConfig(n=MAX_WIDTH + 1, count=1, seed=1))
        # the exhaustive sweep's cap; a count at it is accepted (not run)
        with pytest.raises(ContractViolation, match="^instance cap exceeded"):
            random_sweep(SweepConfig(n=16, count=INSTANCE_CAP + 1, seed=1))
        assert SweepConfig(n=16, count=INSTANCE_CAP, seed=1).resolved("random").count == INSTANCE_CAP

    def test_each_chunk_runs_before_the_next_is_drawn(self, monkeypatch):
        config = SweepConfig(n=16, count=40, seed=5)
        expected = random_sweep(config).to_json_bytes()
        draws = []

        class Counted(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        seen = []
        run_chunk = harness._run_random_chunk

        def counted(task):
            seen.append(len(draws))
            return run_chunk(task)

        monkeypatch.setattr(harness, "random", SimpleNamespace(Random=Counted))
        monkeypatch.setattr(harness, "_run_random_chunk", counted)
        assert random_sweep(config).to_json_bytes() == expected
        # 8 chunks of 5 full-width instances, three draws (R, A, B) each
        assert seen == [15 * chunk for chunk in range(1, 9)]


class TestHunt:
    def test_small_hunt_publishes_histogram(self):
        report = hunt_shrink_cycles(SweepConfig(k_min=3, k_max=4))
        assert report.failures_total == 0
        assert report.max_cycles <= 4
        assert sum(report.cycle_histogram.values()) == report.instances
        assert report.cycle_witnesses_total == len(report.cycle_witnesses)
        assert report.ok()

    def test_five_cycle_instances_fail_the_report(self, monkeypatch, capsys):
        # no real instance needs a fifth shrink cycle; this constant set
        # makes 51 instances of R=15 need one (and 45 others miss the residue)
        inner = harness.precompute

        def tampered(R, n):
            params = inner(R, n)
            return params._replace(rn=params.mask >> 1) if R == 15 else params

        def fifth_cycle_failures(report):
            assert not report.ok()
            assert {w["r"] for w in report.failures} == {"F"}
            reasons = [w["reason"].split(" (")[0] for w in report.failures]
            return reasons.count("InvariantViolation: shrink needed more than 4 cycles")

        monkeypatch.setattr(harness, "precompute", tampered)
        for sweep in (exhaustive_sweep, hunt_shrink_cycles):
            assert fifth_cycle_failures(sweep(SweepConfig(k_min=4, k_max=4))) == 51
        assert fifth_cycle_failures(random_sweep(SweepConfig(n=4, count=400, seed=1)))
        for command in ("sweep", "hunt"):
            assert main([command, "--k-min", "4", "--k-max", "4"]) == EXIT_VERIFICATION
        assert capsys.readouterr().out.count("failures=96 ") == 2

    def test_report_schema(self):
        report = hunt_shrink_cycles(SweepConfig(k_min=3, k_max=3))
        doc = json.loads(report.to_json_bytes())
        assert set(doc) == {"header", "body"}
        assert set(doc["header"]) == {"version", "config", "seed"}
        body = doc["body"]
        assert set(body) == {
            "totals",
            "cycle_histogram",
            "rule_usage",
            "max_cycles",
            "failures",
            "cycle_witnesses",
            "cycle_witnesses_total",
        }
        assert set(body["cycle_histogram"]) == {str(i) for i in range(8)}
        assert set(body["rule_usage"]) == {str(i) for i in range(1, 7)}
        witness = body["max_cycles"]["witness"]
        assert set(witness) == {"n", "r", "a", "b"}
        int(witness["r"], 16)  # hex round-trip


class TestUnexpectedErrors:
    def test_exception_is_a_failure_not_an_abort(self, monkeypatch, capsys):
        inner = harness.mulmod_checked

        def faulty(A, B, R, n, **kwargs):
            if (R, A, B) == (5, 2, 3):
                raise ValueError("synthetic fault")
            return inner(A, B, R, n, **kwargs)

        monkeypatch.setattr(harness, "mulmod_checked", faulty)
        report = random_sweep(SweepConfig(n=3, count=60, seed=4))  # draws (5, 2, 3) once
        assert report.instances == 60
        assert report.failures_total == 1
        assert not report.ok()
        assert report.failures == [
            {"n": 3, "r": "5", "a": "2", "b": "3", "reason": "ValueError: synthetic fault"}
        ]
        assert sum(report.cycle_histogram.values()) == 59
        argv = ["random", "--n", "3", "--count", "60", "--seed", "4"]
        assert main(argv) == EXIT_VERIFICATION
        assert "failures=1 " in capsys.readouterr().out

    def test_sliced_kernel_fault_fails_its_modulus(self, monkeypatch, capsys):
        inner = sliced.run_moduli

        def faulty(batch):
            if any(params.modulus == 5 for params in batch):
                raise ValueError("synthetic fault")
            return inner(batch)

        monkeypatch.setattr(sliced, "run_moduli", faulty)
        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=3))
        assert report.instances == 126
        assert report.failures_total == len(report.failures) == 25
        assert report.failures == [
            {"n": 3, "r": "5", "a": str(A), "b": str(B), "reason": "ValueError: synthetic fault"}
            for A in range(5)
            for B in range(5)
        ]
        assert sum(report.cycle_histogram.values()) == 126 - 25
        assert main(["sweep", "--k-max", "3"]) == EXIT_VERIFICATION
        assert "failures=25 " in capsys.readouterr().out

    def test_corrupted_lane_is_judged_by_the_scalar_kernel(self, monkeypatch):
        config = SweepConfig(k_min=3, k_max=3)
        clean = exhaustive_sweep(config)
        inner = sliced.run_moduli
        checked = harness.mulmod_checked
        # (6, 0, 0) is the first lane of a segment that does not start at lane 0
        for instance in ((5, 2, 3), (6, 0, 0)):
            R, A, B = instance

            def corrupting(batch):
                run = inner(batch)
                moduli = [params.modulus for params in batch]
                if R in moduli:
                    # the 8-bit field of the batch lane of (R, A, B), after
                    # the lanes of the moduli before R
                    lane = sum(m * m for m in moduli[: moduli.index(R)]) + A * R + B
                    run = run._replace(p=run.p ^ (1 << 8 * lane))
                return run

            def wrong(a, b, r, n, **kwargs):
                result, ok = checked(a, b, r, n, **kwargs)
                return result, ok and (r, a, b) != instance

            witness = {"n": 3, "r": str(R), "a": str(A), "b": str(B)}
            with monkeypatch.context() as patch:
                patch.setattr(sliced, "run_moduli", corrupting)
                # the scalar kernel gets the lane right: the sliced kernel
                # is at fault
                report = exhaustive_sweep(config)
                assert report.failures == [dict(witness, reason=SLICED_DISAGREES)]
                assert report.cycle_histogram == clean.cycle_histogram
                assert report.rule_usage == clean.rule_usage

                # the scalar kernel gets it wrong too: its reason is the one
                # recorded
                patch.setattr(harness, "mulmod_checked", wrong)
                report = exhaustive_sweep(config)
                assert report.failures == [dict(witness, reason="residue mismatch")]
                assert report.cycle_histogram == clean.cycle_histogram

    def test_precompute_fault_fails_the_instances_that_need_it(self, monkeypatch, capsys):
        inner = harness.precompute
        calls = []

        def faulty(R, n):
            calls.append(R)
            if R == 5:
                raise ValueError("synthetic fault")
            return inner(R, n)

        clean = exhaustive_sweep(SweepConfig(k_min=3, k_max=3))
        clean_r5 = harness._run_batch_task((3, [5]))
        monkeypatch.setattr(harness, "precompute", faulty)
        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=3))
        assert calls == [4, 5, 6, 7]  # once per modulus, not per instance
        assert report.instances == 126
        assert report.failures_total == len(report.failures) == 25
        assert {(w["r"], w["reason"]) for w in report.failures} == {
            ("5", "ValueError: synthetic fault")
        }
        for cycles, count in clean.cycle_histogram.items():
            assert report.cycle_histogram[cycles] == count - clean_r5.cycle_histogram[cycles]
        for rule, count in clean.rule_usage.items():
            assert report.rule_usage[rule] == count - clean_r5.rule_usage[rule]

        calls.clear()
        report = random_sweep(SweepConfig(n=3, count=60, seed=4))
        assert report.instances == 60
        assert 0 < report.failures_total == calls.count(5)
        assert all(w["r"] == "5" for w in report.failures)
        assert sum(report.cycle_histogram.values()) == 60 - calls.count(5)

        assert main(["sweep", "--k-max", "3"]) == EXIT_VERIFICATION
        assert "failures=25 " in capsys.readouterr().out


# a random sweep and an in-process traced JSON mulmod call, their output
# swallowed
RANDOM_AND_TRACED = """
import contextlib, io
from csmulmod import SweepConfig, random_sweep
from csmulmod.cli import main
random_sweep(SweepConfig(n=64, count=4, seed=7, jobs=1))
argv = ["mulmod", "--n", "64", "--mod", "C5", "--a", "3F", "--b", "79", "--trace", "--json"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(argv) == 0
assert out.getvalue()
"""


class TestImports:
    @pytest.mark.parametrize(
        "module, run",
        (("csmulmod", ""), ("csmulmod.cli", ""), ("csmulmod", RANDOM_AND_TRACED)),
        ids=("csmulmod", "csmulmod.cli", "random_and_traced_mulmod"),
    )
    def test_import_loads_neither_sliced_nor_multiprocessing(self, module, run):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = (
            f"import sys, {module}\n{run}\n"
            "print(sorted({'csmulmod.sliced', 'multiprocessing'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
        ).stdout
        assert out.strip() == "[]"


def _shard(start: int, count: int, max_cycles: int | None = None) -> SweepReport:
    """A fabricated shard: ``count`` failures and 4-cycle witnesses whose
    ``a`` numbers them from ``start``, and a max-cycles instance with
    A = start unless ``max_cycles`` is None (every instance failed)."""
    shard = SweepReport(
        instances=count,
        failures_total=count,
        failures=[{"a": start + i, "reason": "x"} for i in range(count)],
        cycle_witnesses=[{"a": start + i, "cycles": 4} for i in range(count)],
        cycle_witnesses_total=count,
    )
    if max_cycles is not None:
        shard.max_cycles = max_cycles
        shard.max_cycles_instance = (8, 200, start, 0)
    return shard


class TestTally:
    def test_witness_reads_the_same_before_and_after_rendering(self):
        report = random_sweep(SweepConfig(n=16, count=40, seed=5))
        n, R, A, B = report.max_cycles_instance
        witness = {"n": n, "r": f"{R:X}", "a": f"{A:X}", "b": f"{B:X}"}
        assert report.max_cycles_witness == witness
        body = json.loads(report.to_json_bytes())["body"]
        assert body["max_cycles"]["witness"] == witness
        assert report.max_cycles_witness == witness

    def test_merge_keeps_the_earliest_maximal_instance(self):
        config = SweepConfig(n=16, count=40, seed=5)
        (n, instances), = harness._random_chunks(config.resolved("random"), 40)
        cycles = [mulmod(A, B, R, n).shrink_cycles for R, A, B in instances]
        maximal = [i for i, c in enumerate(cycles) if c == max(cycles)]
        # the maximum is reached in more than one of the sweep's 8 chunks of 5
        assert maximal[-1] // 5 > maximal[0] // 5
        report = random_sweep(config)
        assert report.max_cycles == max(cycles)
        assert report.max_cycles_instance == (n, *instances[maximal[0]])

    def test_first_zero_cycle_instance_is_the_witness(self):
        report = SweepReport()
        for B in (0, 1):
            report.add(3, 5, 0, B, precompute(5, 3))
        assert report.max_cycles == 0
        assert report.max_cycles_witness == {"n": 3, "r": "5", "a": "0", "b": "0"}

    def test_merged_witness_lists_stop_at_the_cap_in_shard_order(self):
        total = SweepReport()
        for start in (0, 60, 120):
            total.merge(_shard(start, 60, max_cycles=1))
        assert total.failures_total == total.cycle_witnesses_total == 180
        assert [w["a"] for w in total.failures] == list(range(WITNESS_CAP))
        assert [w["a"] for w in total.cycle_witnesses] == list(range(WITNESS_CAP))

    def test_merge_tie_on_max_cycles_keeps_the_earlier_shard(self):
        total = SweepReport()
        for start in (0, 10, 20):
            total.merge(_shard(start, 1, max_cycles=3))
        assert total.max_cycles == 3
        assert total.max_cycles_instance == (8, 200, 0, 0)
        total.merge(_shard(30, 1, max_cycles=4))
        assert total.max_cycles_witness == {"n": 8, "r": "C8", "a": "1E", "b": "0"}

    def test_merging_an_all_failed_shard_keeps_the_witness(self):
        total = SweepReport()
        total.merge(_shard(0, 2))
        assert total.max_cycles_witness is None
        # a zero-cycle instance after an all-failed shard is still the witness
        total.merge(_shard(10, 2, max_cycles=0))
        total.merge(_shard(20, 2))
        assert (total.max_cycles, total.max_cycles_instance) == (0, (8, 200, 10, 0))

    def test_merged_counts_add_up(self):
        shards = [SweepReport() for _ in range(2)]
        shards[0].cycle_histogram[1] = 5
        shards[1].cycle_histogram[1] = 2
        shards[1].rule_usage[6] = 3
        total = SweepReport()
        for shard in shards:
            total.merge(shard)
        assert total.cycle_histogram[1] == 7 and total.rule_usage[6] == 3
