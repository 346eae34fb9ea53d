"""Every wrong input is the caller's error, whatever its size.

Hypothesis draws the argv of each of the five commands from valid,
boundary and absurd values of every option: integers in and out of range,
text that reads as no number, and integers of any size. The exit code is
0, 1 or 2, and 2 only with a report that lists failures. It is never 3,
and stderr never holds a traceback. The library entry points, given the
same values, raise nothing but ``ContractViolation``.

The draws stay cheap. Widths are at most 64 or above ``MAX_WIDTH``,
random counts at most 50 or above ``INSTANCE_CAP``, and exhaustive k at
most 5 or 12 and up (an exhaustive sweep that reaches k = 12 is over the
instance cap). ``os.cpu_count`` reads 2, so no pool gets more than two
workers, and only a random sweep with jobs above 1 starts one.
"""

import contextlib
import io
import os
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmulmod import (
    MAX_WIDTH,
    ContractViolation,
    SweepConfig,
    exhaustive_sweep,
    hunt_shrink_cycles,
    mulmod,
    mulmod_checked,
    precompute,
    random_sweep,
)
from csmulmod.cli import main
from csmulmod.harness import INSTANCE_CAP

# Integers past every bound; 2**40 would allocate its shifted constants
# if a width that large got through.
HUGE = [MAX_WIDTH + 1, 2**40, 2**64, 10**20, -(10**20)]
# Text that reads as no integer, or as one past int()'s digit limit.
NOT_DECIMAL = ["", "x", "1e3", "+8", "6_4", "9" * 5000]
NOT_HEX = ["", "xyz", "-5", "1_0", "0x"]
# An operand whose decimal text is past the interpreter's digit limit.
VAST = 1 << 20000


def mostly(valid, *others):
    """``valid`` four times in five on average, else one of ``others``."""
    return st.sampled_from([valid] * 4 + [st.one_of(*others)]).flatmap(lambda s: s)


widths = mostly(st.integers(3, 64), st.integers(-2, 2), st.sampled_from(HUGE))
counts = mostly(
    st.integers(1, 50), st.integers(-2, 0), st.sampled_from([INSTANCE_CAP + 1, 2**64, -(10**20)])
)
exhaustive_ks = mostly(st.integers(3, 5), st.integers(-2, 2), st.sampled_from([12, 40, *HUGE]))
random_ks = mostly(st.none(), st.integers(-2, 64), st.sampled_from(HUGE))
seeds = mostly(st.integers(-(2**70), 2**70), st.sampled_from([10**4000, *HUGE]))
# jobs above 1 starts a pool for a random sweep, so it is drawn rarely
jobs = st.sampled_from([1] * 9 + [0, -1, -(10**20), 2, 10**20])


def operand(bound: int):
    """An operand below ``bound``, at it, or of any size at all."""
    below = st.integers(0, min(bound, 2**70) - 1) if bound > 0 else st.integers(0, 2**70)
    return mostly(below, st.sampled_from([bound, VAST, -VAST]), st.integers(-(2**70), 2**70))


def modulus(n: int):
    """A modulus of width n, of another width, or absurd."""
    width_n = st.integers(1 << (n - 1), (1 << n) - 1) if 0 < n <= 64 else st.just(5)
    return mostly(width_n, st.integers(-5, 2**70), st.just(VAST))


def _option(draw, name: str, value, as_text, not_text: list[str]) -> list[str]:
    """The option with ``value`` in ``as_text``, or (one time in thirty
    each) left out or given text that is no number; None leaves it out."""
    form = draw(st.integers(0, 29))
    if value is None or form == 0:
        return []
    if form == 1:
        return [name, draw(st.sampled_from(not_text))]
    return [name, as_text(value)]


def _decimal(draw, name, value):
    return _option(draw, name, value, str, NOT_DECIMAL)


def _hex(draw, name, value):
    # a negative value has no hex text of the CLI's form
    return _option(draw, name, value, lambda v: f"{v:X}" if v >= 0 else f"-{-v:X}", NOT_HEX)


@st.composite
def mulmod_values(draw):
    n = draw(widths)
    R = draw(modulus(n))
    return dict(n=n, R=R, A=draw(operand(R)), B=draw(operand(R)), trace=draw(st.booleans()))


@st.composite
def sweep_values(draw, mode: str):
    if mode == "random":
        n = draw(widths)
        return dict(
            k_min=draw(random_ks), k_max=draw(random_ks), n=n, count=draw(counts),
            seed=draw(seeds), jobs=draw(jobs),
        )
    return dict(
        k_min=draw(st.one_of(st.none(), exhaustive_ks)),
        # always set: the default k_max of 6 is more than these draws run
        k_max=draw(exhaustive_ks),
        n=draw(st.one_of(st.none(), widths)),
        jobs=draw(jobs),
    )


@st.composite
def argv(draw, command: str, out_dir: str):
    tokens = [command]
    if command in ("mulmod", "precompute"):
        values = draw(mulmod_values())
        tokens += _decimal(draw, "--n", values["n"])
        tokens += _hex(draw, "--mod", values["R"])
        if command == "mulmod":
            tokens += _hex(draw, "--a", values["A"])
            tokens += _hex(draw, "--b", values["B"])
            if values["trace"]:
                tokens.append("--trace")
    else:
        values = draw(sweep_values("random" if command == "random" else "verify"))
        for name in ("k_min", "k_max", "n", "count", "seed", "jobs"):
            tokens += _decimal(draw, "--" + name.replace("_", "-"), values.get(name))
        out = draw(st.sampled_from([None] * 6 + ["report.json", ".", "missing/report.json"]))
        if out is not None:
            tokens += ["--out", os.path.join(out_dir, out)]
    if draw(st.booleans()):
        tokens.append("--json")
    return tokens


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reports"))


@pytest.fixture(autouse=True, scope="module")
def two_cpus():
    with mock.patch.object(os, "cpu_count", return_value=2):
        yield


COMMANDS = ("mulmod", "precompute", "sweep", "hunt", "random")
HUGE_N = "99999999999999999999"
# Inputs that once exited 3, or 2 with every instance failed, run first.
FORMER_FAULTS = {
    "mulmod": ["mulmod", "--n", "8", "--mod", "AD", "--a", "F" * 5001, "--b", "1"],
    "precompute": ["precompute", "--n", HUGE_N, "--mod", "5"],
    "sweep": ["sweep", "--k-min", "3", "--k-max", "3", "--n", HUGE_N],
    "hunt": ["hunt", "--k-max", HUGE_N],
    "random": ["random", "--n", HUGE_N, "--k-min", "3", "--k-max", "3", "--count", "2", "--seed", "1"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_any_argv_exits_0_1_or_2_without_a_traceback(command, out_dir):
    @settings(max_examples=60)
    @given(argv(command, out_dir))
    @example(FORMER_FAULTS[command])
    def check(tokens):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(tokens)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (tokens, err[:300])
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: "), err[:300]
        if code == 2:
            # the summary line names how many instances failed
            failures = re.search(r"failures=(\d+)", out + err)
            assert failures and int(failures.group(1)) > 0, (tokens, out[:300], err[:300])

    check()


SWEEPS = {"sweep": exhaustive_sweep, "hunt": hunt_shrink_cycles, "random": random_sweep}


def _unless_rejected(call, *args, **kwargs):
    """The call's result, or None if it raised ContractViolation; any
    other exception fails the test."""
    try:
        return call(*args, **kwargs)
    except ContractViolation:
        return None


@pytest.mark.parametrize("command", COMMANDS)
def test_library_entry_points_raise_only_contract_violations(command):
    if command in ("mulmod", "precompute"):
        @settings(max_examples=60)
        @given(mulmod_values())
        def check(values):
            n, R, A, B = values["n"], values["R"], values["A"], values["B"]
            if command == "precompute":
                _unless_rejected(precompute, R, n)
            else:
                _unless_rejected(mulmod, A, B, R, n, values["trace"])
                _unless_rejected(mulmod_checked, A, B, R, n)
                # constants built for another (R, n), most of the time
                _unless_rejected(mulmod_checked, A, B, R, n, params=precompute(173, 8))
    else:
        @settings(max_examples=60)
        @given(sweep_values("random" if command == "random" else "verify"))
        def check(values):
            report = _unless_rejected(SWEEPS[command], SweepConfig(**values))
            assert report is None or report.ok(), report.failures[:3]

    check()


@pytest.mark.parametrize("argv", [
    ["mulmod", "--n", HUGE_N, "--mod", "5", "--a", "1", "--b", "1"],
    ["precompute", "--n", HUGE_N, "--mod", "5"],
    ["sweep", "--k-min", "3", "--k-max", "3", "--n", HUGE_N],
    ["hunt", "--k-max", "3", "--n", str(MAX_WIDTH + 1)],
    ["random", "--n", HUGE_N, "--k-min", "3", "--k-max", "3", "--count", "2", "--seed", "1"],
], ids=COMMANDS)
def test_a_width_past_the_bound_exits_1_by_name(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: n <= {MAX_WIDTH} violated (n=")


def test_a_count_past_the_cap_exits_1_before_any_draw(capsys):
    assert main(["random", "--n", "8", "--count", str(INSTANCE_CAP + 1), "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: instance cap exceeded: sweep would run {INSTANCE_CAP + 1} instances, "
        f"cap is {INSTANCE_CAP}\n"
    )


def test_an_operand_past_the_digit_limit_is_named_in_hex(capsys):
    assert main(FORMER_FAULTS["mulmod"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: A < R violated (A=0x{'f' * 5001}, R=173)")


def test_a_worksheet_at_the_bound_prints_in_decimal(capsys):
    # a step's discarded amount, up to 3 * 2**(n+1), is printed in decimal;
    # at the widest width it must still fit the interpreter's digit limit
    argv = ["mulmod", "--n", str(MAX_WIDTH), "--mod", "5", "--a", "4", "--b", "4", "--trace"]
    assert main(argv) == 0
    discarded = re.findall(r"discarded = (\d+) ", capsys.readouterr().out)
    assert len(discarded) == 3 and max(map(int, discarded)) > 1 << MAX_WIDTH
