import contextlib
import io
import json
import random
import re
import sys
import time

import pytest

from csmulmod import ContractViolation, InvariantViolation, StepTrace, mulmod
from csmulmod import cli
from csmulmod.cli import _build_parser, main, run


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

    # int(text, 16) reads "1_0" as 0x10, "+1" as 1 and "\u0663" as 3
    @pytest.mark.parametrize("bad", ["1_0", "+1", "-1", "\u0663"])
    def test_rejects_what_only_int_would_read(self, capsys, bad):
        code, _, err = run_cli(
            capsys, "mulmod", "--n", "8", "--mod", "AD", "--a", bad, "--b", "79"
        )
        assert code == 1
        assert "--a is not valid hexadecimal" in err

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


def json_instances(n):
    """(R, A, B) at width n: A = 0 (no shrink cycle, no rule fired), four
    seeded full-width draws, one shift-path modulus and, at n=8, the
    pinned three-cycle instance."""
    rng = random.Random(n)
    cases = [((1 << n) - 1, 0, 5)]
    for _ in range(4):
        R = rng.randrange(1 << (n - 1), 1 << n)
        cases.append((R, rng.randrange(R), rng.randrange(R)))
    cases.append((5, 4, 3))
    if n == 8:
        cases.append((0xAD, 0x3F, 0x79))
    return cases


def hexes(*values):
    return [format(v, "X") for v in values]


class TestMulmodJson:
    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("n", [3, 8, 64, 256])
    def test_document_is_canonical_json_of_the_result(self, capsys, n, trace):
        cycles = set()
        for R, A, B in json_instances(n):
            flags = ["--trace", "--json"] if trace else ["--json"]
            code, out, _ = run_cli(
                capsys, "mulmod", "--n", str(n), "--mod", *hexes(R),
                "--a", *hexes(A), "--b", *hexes(B), *flags,
            )
            assert code == 0
            canonical = json.dumps(json.loads(out), sort_keys=True) + "\n"
            # the same as canonical == out, but a failure's diff of these
            # pieces is quick where one of a 40 kB line takes minutes
            assert out.split(", ") == canonical.split(", ")
            doc = json.loads(out)
            result = mulmod(A, B, R, n, trace=trace)
            assert doc.pop("p") == hexes(result.p)[0]
            assert doc.pop("q") == hexes(result.q)[0]
            assert doc.pop("shrink_cycles") == result.shrink_cycles
            assert doc.pop("squeeze_rule") == result.squeeze_rule
            cycles.add(result.shrink_cycles)
            if not trace:
                assert doc == {}
                continue
            tr = result.traces
            assert list(doc) == ["trace"]
            doc = doc["trace"]
            # a_i, f and i are JSON ints, every other field upper-case hex
            assert doc["steps"] == [
                {
                    key: v if key in ("a_i", "f", "i") else format(v, "X")
                    for key, v in st._asdict().items()
                }
                for st in tr.steps
            ]
            sh = tr.shrink
            assert doc["shrink"] == {
                "cycles": sh.cycles,
                "rules_fired": list(sh.rules_fired),
                "entry": hexes(sh.entry_p, sh.entry_q),
                "exit": hexes(sh.exit_p, sh.exit_q),
                "snapshots": [
                    {"topup": hexes(c.topup_p, c.topup_q), "rule": c.rule, "out": hexes(c.p, c.q)}
                    for c in sh.snapshots
                ],
            }
            sq = tr.squeeze
            assert doc["squeeze"] == {
                "rule": sq.rule,
                "entry": hexes(sq.entry_p, sq.entry_q),
                "edited": hexes(sq.edited_p, sq.edited_q),
                "exit": hexes(sq.exit_p, sq.exit_q),
            }
        assert 0 in cycles and (n != 8 or 3 in cycles)

    def test_step_format_follows_the_record_layout(self):
        # _mulmod_json formats each step as `_STEP % st`, so the format's
        # keys must be StepTrace's fields, in field order, and that order
        # must be the one json.dumps(sort_keys=True) writes.
        keys = [k.decode() for k in re.findall(rb'"(\w+)":', cli._STEP)]
        assert keys == [f.upper() for f in StepTrace._fields]
        assert list(StepTrace._fields) == sorted(StepTrace._fields)

    def test_case_swap_table_is_swapcase(self):
        every_byte = bytes(range(256))
        assert every_byte.translate(cli._SWAP) == every_byte.swapcase()


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
        # R * 2**shift, printed though the constant set no longer holds it
        assert '"mod_shifted": "34"' in out


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

    @pytest.mark.parametrize(
        "argv, sweep, config",
        [
            (["sweep", "--k-max", "3"], "exhaustive_sweep", {"k_max": 3}),
            (["hunt", "--k-max", "3"], "hunt_shrink_cycles", {"k_max": 3}),
            (
                ["random", "--n", "12", "--count", "20", "--seed", "3"],
                "random_sweep",
                {"n": 12, "count": 20, "seed": 3},
            ),
        ],
        ids=["sweep", "hunt", "random"],
    )
    def test_json_report_reaches_a_text_only_stdout(self, argv, sweep, config):
        # redirect_stdout(StringIO()) gives a stdout with no .buffer, as an
        # in-process caller that captures the output has
        from csmulmod import harness

        report = getattr(harness, sweep)(harness.SweepConfig(**config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--json"])
        assert code == 0, err.getvalue()
        assert out.getvalue() == report.to_json_bytes().decode()

    def test_hunt_summary(self, capsys):
        code, out, _ = run_cli(capsys, "hunt", "--k-min", "3", "--k-max", "4")
        assert code == 0
        assert "max_shrink_cycles" in out

    def test_unwritable_out_is_rejected_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        from csmulmod import harness

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(harness, "_execute", no_sweep)
        bad = str(tmp_path / "missing" / "report.json")
        for argv in (
            ("sweep", "--k-max", "3"),
            ("hunt", "--k-max", "3"),
            ("random", "--n", "8", "--count", "5", "--seed", "1"),
        ):
            code, out, err = run_cli(capsys, *argv, "--out", bad)
            assert code == 1
            assert err.startswith("error: --out cannot be written")
            assert out == ""
        code, _, err = run_cli(capsys, "sweep", "--k-max", "3", "--out", str(tmp_path))
        assert code == 1 and "--out" in err

    def test_instance_cap_rejects_at_once_and_leaves_no_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "sweep", "--k-max", "40", "--out", str(out_file))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert "instance cap exceeded" in err
        assert not out_file.exists()


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
        assert _build_parser() is _build_parser()
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "mulmod", "--n", "8", "--mod", "AD", "--a", "3F", "--b", "79"
            )
            assert code == 0 and out.startswith("P=46 Q=72")


# (command, option, the other options the command needs)
INTEGER_OPTIONS = [
    ("mulmod", "--n", ["--mod", "AD", "--a", "3F", "--b", "79"]),
    ("precompute", "--n", ["--mod", "AD"]),
    ("random", "--count", ["--n", "8", "--seed", "1"]),
    ("random", "--seed", ["--n", "8", "--count", "1"]),
    ("sweep", "--k-max", []),
    ("hunt", "--k-min", ["--k-max", "3"]),
    ("sweep", "--jobs", ["--k-max", "3"]),
]


class TestIntegerOptions:
    # int() reads "6_4" as 64, "+8" as 8 and "\u0668" as 8
    @pytest.mark.parametrize("bad", ["6_4", "+8", "\u0668", ""])
    @pytest.mark.parametrize("command, option, rest", INTEGER_OPTIONS)
    def test_rejects_what_only_int_would_read(self, capsys, command, option, rest, bad):
        code, out, err = run_cli(capsys, command, option, bad, *rest)
        assert code == 1
        assert out == ""
        assert err == f"error: argument {option}: {bad!r} is not a decimal integer\n"

    @pytest.mark.parametrize("command, option, rest", INTEGER_OPTIONS)
    def test_rejects_more_digits_than_int_reads(self, capsys, command, option, rest):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        code, out, err = run_cli(capsys, command, option, "-" + "9" * (limit + 1), *rest)
        assert (code, out) == (1, "")
        assert err == (
            f"error: argument {option}: a {limit + 1}-digit integer is past the "
            f"{limit}-digit limit\n"
        )

    def test_reads_ascii_digits_with_a_sign_and_spaces(self):
        _, commands = _build_parser()
        args = commands["random"].parse_args(
            ["--n", " 8 ", "--count", "010", "--seed", "-3", "--k-max", "0"]
        )
        assert (args.n, args.count, args.seed, args.k_max) == (8, 10, -3, 0)


def parsed(parser, argv):
    """The namespace of a parse as a dict, or the error it raised."""
    try:
        return vars(parser.parse_args(argv))
    except ContractViolation as exc:
        return str(exc)


# every command with a valid call, a missing required option (a missing
# value for sweep and hunt, which require none), an unknown flag and a bad
# value
DISPATCH_CASES = [
    ("mulmod", "valid",
     ["--n", "8", "--mod", "AD", "--a", "3F", "--b", "79", "--trace", "--json"]),
    ("mulmod", "missing", ["--n", "8", "--mod", "AD"]),
    ("mulmod", "unknown", ["--n", "8", "--mod", "AD", "--a", "1", "--b", "1", "--nope"]),
    ("mulmod", "bad value", ["--n", "x", "--mod", "AD", "--a", "1", "--b", "1"]),
    ("precompute", "valid", ["--n", "8", "--mod", "AD", "--json"]),
    ("precompute", "missing", ["--mod", "AD"]),
    ("precompute", "unknown", ["--n", "8", "--mod", "AD", "extra"]),
    ("precompute", "bad value", ["--n", "8.0", "--mod", "AD"]),
    ("sweep", "valid", ["--k-min", "3", "--k-max", "4", "--jobs", "2", "--out", "r.json"]),
    ("sweep", "missing", ["--k-max"]),
    ("sweep", "unknown", ["--k-max", "3", "--count", "1"]),
    ("sweep", "bad value", ["--k-max", "1_0"]),
    ("hunt", "valid", ["--k-max", "5", "--json"]),
    ("hunt", "missing", ["--n"]),
    ("hunt", "unknown", ["--k-max", "5", "--seed", "1"]),
    ("hunt", "bad value", ["--k-min", "+3"]),
    ("random", "valid", ["--n", "64", "--count", "3", "--seed", "-7", "--k-min", "5"]),
    ("random", "missing", ["--n", "64", "--count", "3"]),
    ("random", "unknown", ["--n", "64", "--count", "3", "--seed", "1", "--trace"]),
    ("random", "bad value", ["--n", "64", "--count", "3", "--seed", "\u0663"]),
]


class TestDispatch:
    @pytest.mark.parametrize(
        "command, case, rest", DISPATCH_CASES,
        ids=[f"{command}-{case}" for command, case, _ in DISPATCH_CASES],
    )
    def test_command_parser_parses_as_the_top_level_parser(self, command, case, rest):
        parser, commands = _build_parser()
        top = parsed(parser, [command, *rest])
        own = parsed(commands[command], rest)
        if case == "valid":
            assert top.pop("command") == command
        else:
            assert isinstance(top, str)
        assert own == top

    def test_every_command_has_its_own_parser(self):
        parser, commands = _build_parser()
        with pytest.raises(ContractViolation, match="invalid choice") as exc:
            parser.parse_args(["nope"])
        choices = re.findall(r"\w+", str(exc.value).partition("choose from")[2])
        assert sorted(choices) == sorted(commands)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["nope"], "argument command: invalid choice: 'nope'"),
            (["--n", "8", "mulmod"], "argument command: invalid choice: '8'"),
        ],
    )
    def test_no_command_is_rejected_by_the_top_level_parser(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv, usage",
        [(["-h"], "usage: csmulmod [-h]"), (["mulmod", "-h"], "usage: csmulmod mulmod")],
    )
    def test_help_prints_usage_and_exits_0(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(usage)

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "argv",
            ["csmulmod", "mulmod", "--n", "8", "--mod", "AD", "--a", "3F", "--b", "79"],
        )
        assert main() == 0
        assert capsys.readouterr().out.startswith("P=46 Q=72")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["precompute", "--n", "8", "--mod", "AD"], 0),
            (["precompute", "--n", "8", "--mod", "XYZ"], 1),
        ],
    )
    def test_run_exits_with_the_code_of_main(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["csmulmod", *argv])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert ("k=8 shift=0" in out) == (code == 0)
        assert err.startswith("error: --mod is not valid hexadecimal") == (code == 1)
