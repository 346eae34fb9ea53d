import json

from csmulmod import InvariantViolation
from csmulmod.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMulmodCommand:
    def test_known_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "mulmod", "--n", "8", "--mod", "AD", "--a", "3F", "--b", "79"
        )
        assert code == 0
        p_line, diag_line = out.strip().splitlines()
        parts = dict(field.split("=") for field in p_line.split())
        assert (int(parts["P"], 16) + int(parts["Q"], 16)) % 173 == 11
        assert "shrink_cycles=3" in diag_line

    def test_zero_operand(self, capsys):
        code, out, _ = run_cli(
            capsys, "mulmod", "--n", "8", "--mod", "AD", "--a", "0", "--b", "79"
        )
        assert code == 0
        assert "P=0 Q=0" in out

    def test_rejects_operand_at_modulus(self, capsys):
        code, _, err = run_cli(
            capsys, "mulmod", "--n", "8", "--mod", "C0", "--a", "C0", "--b", "1"
        )
        assert code == 1
        assert "A < R violated" in err

    def test_rejects_bad_hex(self, capsys):
        code, _, err = run_cli(
            capsys, "mulmod", "--n", "8", "--mod", "ZZ", "--a", "1", "--b", "1"
        )
        assert code == 1
        assert "hexadecimal" in err

    def test_rejects_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "mulmod", "--nope")
        assert code == 1

    def test_trace_has_one_worksheet_per_iteration(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mulmod", "--n", "8", "--mod", "AD", "--a", "3F", "--b", "79", "--trace",
        )
        assert code == 0
        blocks = [line for line in out.splitlines() if line.startswith("step i=")]
        assert len(blocks) == 8
        assert any("|" in line for line in out.splitlines())
        assert "shrink:" in out and "squeeze:" in out

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mulmod", "--n", "8", "--mod", "AD", "--a", "3F", "--b", "79",
            "--trace", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert (int(doc["p"], 16) + int(doc["q"], 16)) % 173 == 11
        assert doc["shrink_cycles"] == 3
        assert len(doc["trace"]["steps"]) == 8
        assert doc["trace"]["squeeze"]["rule"] == doc["squeeze_rule"]


class TestPrecomputeCommand:
    def test_full_width(self, capsys):
        code, out, _ = run_cli(capsys, "precompute", "--n", "8", "--mod", "AD")
        assert code == 0
        assert "k=8 shift=0" in out
        assert "R_n=53 R_m=13 R_1=A6 R_2=9F R_3=98 r_bit=0" in out

    def test_power_of_two(self, capsys):
        code, out, _ = run_cli(capsys, "precompute", "--n", "8", "--mod", "80")
        assert code == 0
        assert "R_n=0" in out

    def test_scaled(self, capsys):
        code, out, _ = run_cli(
            capsys, "precompute", "--n", "6", "--mod", "D", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["shift"] == 2
        assert int(doc["r_1"], 16) == 24


class TestSweepCommands:
    def test_sweep_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        # the default k range of 3..6 fills the bound left out
        for k_args, k_max in ((("--k-min", "3", "--k-max", "4"), 4), (("--k-max", "3"), 3)):
            code, out, _ = run_cli(capsys, "sweep", *k_args, "--out", str(out_file))
            assert code == 0
            assert "failures=0" in out
            doc = json.loads(out_file.read_text())
            assert doc["header"]["config"]["k_min"] == 3
            assert doc["header"]["config"]["k_max"] == k_max
            assert doc["body"]["totals"]["failures"] == 0
            assert doc["body"]["totals"]["instances"] == sum(
                R * R for R in range(4, 1 << k_max)
            )

    def test_random_reports_are_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys,
                "random", "--n", "16", "--count", "200", "--seed", "7",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_json_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "random", "--n", "12", "--count", "50", "--seed", "3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["header"]["seed"] == 3
        assert "instances=50" in err

    def test_hunt_summary(self, capsys):
        code, out, _ = run_cli(capsys, "hunt", "--k-min", "3", "--k-max", "4")
        assert code == 0
        assert "max_shrink_cycles" in out


class TestExitCodes:
    def test_failing_report_maps_to_verification_exit(self, capsys):
        # a correct build cannot produce a failing sweep, so exercise the
        # mapping on a fabricated report
        import argparse

        from csmulmod.cli import EXIT_VERIFICATION, _emit_report
        from csmulmod.harness import SweepConfig, exhaustive_sweep

        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=3))
        report.failures_total = 1
        args = argparse.Namespace(out=None, json=False)
        assert _emit_report(report, args) == EXIT_VERIFICATION
        capsys.readouterr()

    def test_invariant_breach_maps_to_exit_3(self, capsys, monkeypatch):
        import csmulmod.cli as cli_mod

        def boom(*args, **kwargs):
            raise InvariantViolation("synthetic breach")

        monkeypatch.setattr(cli_mod, "mulmod", boom)
        code, _, err = run_cli(
            capsys, "mulmod", "--n", "8", "--mod", "AD", "--a", "1", "--b", "1"
        )
        assert code == 3
        assert "invariant breach" in err

    def test_unexpected_error_maps_to_exit_3(self, capsys, monkeypatch):
        import csmulmod.cli as cli_mod

        def boom(*args, **kwargs):
            raise ValueError("synthetic fault")

        monkeypatch.setattr(cli_mod, "mulmod", boom)
        code, _, err = run_cli(
            capsys, "mulmod", "--n", "8", "--mod", "AD", "--a", "1", "--b", "1"
        )
        assert code == 3
        assert "internal error: ValueError: synthetic fault" in err
        assert "Traceback" not in err

    def test_parser_is_built_once(self, capsys):
        from csmulmod.cli import _build_parser

        assert _build_parser() is _build_parser()
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "mulmod", "--n", "8", "--mod", "AD", "--a", "3F", "--b", "79"
            )
            assert code == 0 and out.startswith("P=46 Q=72")
