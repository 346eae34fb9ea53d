import json

import pytest

from csmulmod import (
    ContractViolation,
    SweepConfig,
    SweepReport,
    exhaustive_sweep,
    hunt_shrink_cycles,
    random_sweep,
)
from csmulmod import harness
from csmulmod.cli import EXIT_VERIFICATION, main
from csmulmod.harness import WITNESS_CAP
from csmulmod.modparams import precompute


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
            exhaustive_sweep(SweepConfig(k_min=3, k_max=9))

    def test_config_validation(self):
        with pytest.raises(ContractViolation, match="k >= 3"):
            exhaustive_sweep(SweepConfig(k_min=2, k_max=3))
        with pytest.raises(ContractViolation, match="k_min <= k_max"):
            exhaustive_sweep(SweepConfig(k_min=5, k_max=4))
        with pytest.raises(ContractViolation, match="k <= n"):
            exhaustive_sweep(SweepConfig(k_min=3, k_max=6, n=5))
        with pytest.raises(ContractViolation, match="jobs"):
            exhaustive_sweep(SweepConfig(k_min=3, k_max=3, jobs=0))
        default = SweepConfig().resolved("verify")
        assert (default.k_min, default.k_max) == (3, 6)


class TestDeterminism:
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

    def test_random_repeat_and_parallelism(self):
        runs = [
            random_sweep(SweepConfig(n=16, count=300, seed=7, jobs=jobs))
            for jobs in (1, 1, 3)
        ]
        payloads = {r.to_json_bytes() for r in runs}
        assert len(payloads) == 1

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


class TestHunt:
    def test_small_hunt_publishes_histogram(self):
        report = hunt_shrink_cycles(SweepConfig(k_min=3, k_max=4))
        assert report.failures_total == 0
        assert report.ge5_total == 0
        assert report.max_cycles <= 4
        assert sum(report.cycle_histogram.values()) == report.instances
        assert report.cycle_witnesses_total == len(report.cycle_witnesses)
        assert report.ok()

    def test_five_cycle_witness_would_fail_the_report(self):
        # no real instance reaches five cycles; check the verdict logic on
        # a fabricated count
        report = hunt_shrink_cycles(SweepConfig(k_min=3, k_max=3))
        assert report.ok()
        report.ge5_total = 1
        assert not report.ok()

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
        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=3))
        assert report.instances == 126
        assert report.failures_total == 1
        assert not report.ok()
        assert report.failures == [
            {"n": 3, "r": "5", "a": "2", "b": "3", "reason": "ValueError: synthetic fault"}
        ]
        assert sum(report.cycle_histogram.values()) == 125
        assert main(["sweep", "--k-min", "3", "--k-max", "3"]) == EXIT_VERIFICATION
        assert "failures=1 " in capsys.readouterr().out

    def test_precompute_fault_fails_the_instances_that_need_it(self, monkeypatch, capsys):
        inner = harness.precompute
        calls = []

        def faulty(R, n):
            calls.append(R)
            if R == 5:
                raise ValueError("synthetic fault")
            return inner(R, n)

        clean = exhaustive_sweep(SweepConfig(k_min=3, k_max=3))
        clean_r5 = harness._run_modulus_task((False, 3, 5))
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


def _shard(start: int, count: int, max_cycles: int | None = None) -> SweepReport:
    """A fabricated shard: ``count`` failures and 4-cycle witnesses whose
    ``a`` numbers them from ``start``, and a max-cycles witness at ``a=start``
    unless ``max_cycles`` is None (every instance failed)."""
    shard = SweepReport(
        instances=count,
        failures_total=count,
        failures=[{"a": start + i, "reason": "x"} for i in range(count)],
        cycle_witnesses=[{"a": start + i, "cycles": 4} for i in range(count)],
        cycle_witnesses_total=count,
    )
    if max_cycles is not None:
        shard.max_cycles = max_cycles
        shard.max_cycles_witness = {"a": start}
    return shard


class TestTally:
    def test_first_zero_cycle_instance_is_the_witness(self):
        report = SweepReport()
        for B in (0, 1):
            report.add(3, 5, 0, B, False, precompute(5, 3))
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
        assert total.max_cycles_witness == {"a": 0}
        total.merge(_shard(30, 1, max_cycles=4))
        assert total.max_cycles_witness == {"a": 30}

    def test_merging_an_all_failed_shard_keeps_the_witness(self):
        total = SweepReport()
        total.merge(_shard(0, 2))
        assert total.max_cycles_witness is None
        # a zero-cycle instance after an all-failed shard is still the witness
        total.merge(_shard(10, 2, max_cycles=0))
        total.merge(_shard(20, 2))
        assert (total.max_cycles, total.max_cycles_witness) == (0, {"a": 10})

    def test_merged_counts_add_up(self):
        shards = [SweepReport() for _ in range(2)]
        shards[0].cycle_histogram[1] = 5
        shards[1].cycle_histogram[1] = 2
        shards[1].rule_usage[6] = 3
        shards[1].ge5_total = 1
        total = SweepReport()
        for shard in shards:
            total.merge(shard)
        assert total.cycle_histogram[1] == 7 and total.rule_usage[6] == 3
        assert total.ge5_total == 1 and not total.ok()
