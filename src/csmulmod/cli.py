"""Command-line front end: single multiplications with worksheet traces,
constant-set inspection, and the sweep family.

All numeric I/O is big-endian hexadecimal without a prefix. Exit codes:
0 success, 1 rejected input, 2 verification failure, 3 internal
invariant breach or any other unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ContractViolation, InvariantViolation
from .harness import (
    SweepConfig,
    SweepReport,
    exhaustive_sweep,
    hunt_shrink_cycles,
    random_sweep,
)
from .mainloop import StepTrace
from .modparams import precompute
from .pipeline import MulResult, mulmod

__all__ = ["main", "run", "format_worksheet"]

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_VERIFICATION = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # Route usage errors through the same path as domain input errors.
    def error(self, message):
        raise ContractViolation(message)


_DECIMAL_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdef")


def _parse_hex(text: str, name: str) -> int:
    t = text.strip().lower().removeprefix("0x")
    # int(t, 16) alone would also take a sign, "_" between digits and
    # non-ASCII digits such as "\u0663".
    if not t or not _HEX_DIGITS.issuperset(t):
        raise ContractViolation(f"{name} is not valid hexadecimal: {text!r}")
    return int(t, 16)


def _decimal(text: str) -> int:
    """The ``type`` of every integer option: an optional ``-`` and ASCII
    digits, after the whitespace strip."""
    t = text.strip()
    digits = t.removeprefix("-")
    # int(t) alone would also take "+", "_" between digits and non-ASCII
    # digits such as "\u0668".
    if not digits or not _DECIMAL_DIGITS.issuperset(digits):
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    try:
        return int(t)
    except ValueError:
        # past sys.get_int_max_str_digits(); argparse would name this
        # function and echo every digit
        raise argparse.ArgumentTypeError(
            f"a {len(digits)}-digit integer is past the "
            f"{sys.get_int_max_str_digits()}-digit limit"
        ) from None


def format_worksheet(st: StepTrace, n: int, b_shifted: int) -> str:
    """Render one loop iteration as the columnar bit worksheet.

    Rows show the doubled registers, the partial product, the first
    addition's outputs, the reduction constant, and the new registers.
    The vertical bar marks the register edge: everything to its left is
    what the step discards, summarized by the two-bit count on the last
    row.
    """
    m = n + 1

    def in_register(label: str, value: int) -> str:
        return f"  {label:<4}  .|{value:0{m}b}"

    doubled_p = 2 * st.p_in
    doubled_q = 2 * st.q_in
    mask = (1 << m) - 1
    lines = [
        f"step i={st.i} a_i={st.a_i} F={st.f}",
        f"  {'2P':<4}  {doubled_p >> m:b}|{doubled_p & mask:0{m}b}",
        f"  {'2Q':<4}  {doubled_q >> m:b}|{doubled_q & mask:0{m}b}",
        in_register("aB", st.a_i * b_shifted),
        in_register("S", st.s),
        in_register("C", st.c),
        in_register("Ry", st.ry),
        in_register("P'", st.p_out),
        in_register("Q'", st.q_out),
        f"  {'F':<4} {st.f:02b}|{'.' * m}",
        f"  discarded = {st.discarded} (= F * 2^{m})",
    ]
    return "\n".join(lines)


def _pair(p: int, q: int) -> str:
    return f"({p:X},{q:X})"


def _cmd_mulmod(args) -> int:
    R = _parse_hex(args.mod, "--mod")
    A = _parse_hex(args.a, "--a")
    B = _parse_hex(args.b, "--b")
    result = mulmod(A, B, R, args.n, trace=args.trace)
    if args.json:
        print(_mulmod_json(result))
        return EXIT_OK
    print(f"P={result.p:X} Q={result.q:X}")
    print(f"shrink_cycles={result.shrink_cycles} squeeze_rule={result.squeeze_rule}")
    tr = result.traces
    if tr is not None:
        b_shifted = B << tr.params.shift
        for st in tr.steps:
            print(format_worksheet(st, args.n, b_shifted))
        sh = tr.shrink
        print(
            f"shrink: rules={list(sh.rules_fired)} "
            f"entry={_pair(sh.entry_p, sh.entry_q)} exit={_pair(sh.exit_p, sh.exit_q)}"
        )
        for i, cyc in enumerate(sh.snapshots, 1):
            print(
                f"  cycle {i}: topup={_pair(cyc.topup_p, cyc.topup_q)} "
                f"rule {cyc.rule} -> {_pair(cyc.p, cyc.q)}"
            )
        sq = tr.squeeze
        print(
            f"squeeze: rule {sq.rule} entry={_pair(sq.entry_p, sq.entry_q)} "
            f"edited={_pair(sq.edited_p, sq.edited_q)} exit={_pair(sq.exit_p, sq.exit_q)}"
        )
    return EXIT_OK


# One bytes format per record kind, its keys in the order json.dumps sorts
# them. StepTrace's fields are in that order too, so a step record is
# formatted as the tuple it is. The document is built as bytes and decoded
# once: bytes % runs these formats faster than str %, and the case swap
# below works on bytes anyway. The keys are written in capitals and the hex
# in lower case, and one bytes.translate of the whole text through _SWAP
# turns both round: %x is written straight into the text, while each %X is
# built as an object of its own, which made %X most of the rendering time
# (lower-case keys with bytes %X and no swap are slower than the swap). The
# table gives what bytes.swapcase gives, with one lookup per byte, where
# swapcase's branches on each byte mispredict on random hex. Every leaf is
# an int or hex, so the text is byte for byte what json.dumps(doc,
# sort_keys=True) gives for the same document.
_HEAD = b'{"P": "%x", "Q": "%x", "SHRINK_CYCLES": %d, "SQUEEZE_RULE": %d%s}'
_TRACE = b', "TRACE": {"SHRINK": %s, "SQUEEZE": %s, "STEPS": [%s]}'
_STEP = (
    b'{"A_I": %d, "C": "%x", "DISCARDED": "%x", "F": %d, "I": %d, "P_IN": "%x", '
    b'"P_OUT": "%x", "Q_IN": "%x", "Q_OUT": "%x", "RY": "%x", "S": "%x"}'
)
_SHRINK = (
    b'{"CYCLES": %d, "ENTRY": ["%x", "%x"], "EXIT": ["%x", "%x"], '
    b'"RULES_FIRED": %a, "SNAPSHOTS": [%s]}'
)
_CYCLE = b'{"OUT": ["%x", "%x"], "RULE": %d, "TOPUP": ["%x", "%x"]}'
_SQUEEZE = (
    b'{"EDITED": ["%x", "%x"], "ENTRY": ["%x", "%x"], "EXIT": ["%x", "%x"], "RULE": %d}'
)
_SWAP = bytes(range(256)).swapcase()


def _mulmod_json(result: MulResult) -> str:
    """The ``mulmod --json`` document of a result, with its trace if it
    has one."""
    tr = result.traces
    trace = b""
    if tr is not None:
        sh, sq = tr.shrink, tr.squeeze
        trace = _TRACE % (
            _SHRINK % (
                sh.cycles, sh.entry_p, sh.entry_q, sh.exit_p, sh.exit_q,
                # %a of a list of ints is its JSON text
                list(sh.rules_fired),
                b", ".join([_CYCLE % (p, q, rule, tp, tq) for tp, tq, rule, p, q in sh.snapshots]),
            ),
            _SQUEEZE % (
                sq.edited_p, sq.edited_q, sq.entry_p, sq.entry_q, sq.exit_p, sq.exit_q, sq.rule,
            ),
            b", ".join([_STEP % st for st in tr.steps]),
        )
    text = _HEAD % (result.p, result.q, result.shrink_cycles, result.squeeze_rule, trace)
    return text.translate(_SWAP).decode()


def _cmd_precompute(args) -> int:
    R = _parse_hex(args.mod, "--mod")
    params = precompute(R, args.n)
    doc = {
        "n": params.n,
        "k": params.k,
        "shift": params.shift,
        "mod": f"{params.modulus:X}",
        "mod_shifted": f"{params.modulus << params.shift:X}",
        "r_n": f"{params.rn:X}",
        "r_m": f"{params.rm:X}",
        "r_1": f"{params.rx[1]:X}",
        "r_2": f"{params.rx[2]:X}",
        "r_3": f"{params.rx[3]:X}",
        "r_bit": params.r_bit,
    }
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"k={doc['k']} shift={doc['shift']}")
        print(
            f"R_n={doc['r_n']} R_m={doc['r_m']} R_1={doc['r_1']} "
            f"R_2={doc['r_2']} R_3={doc['r_3']} r_bit={doc['r_bit']}"
        )
    return EXIT_OK


def _emit_report(report: SweepReport, args) -> int:
    payload = report.to_json_bytes()
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
        print(report.summary())
    elif args.json:
        # The report is ASCII, so text gives the same bytes on a real
        # stdout and also reaches a text-only stream such as a StringIO.
        sys.stdout.write(payload.decode("ascii"))
        print(report.summary(), file=sys.stderr)
    else:
        print(report.summary())
    return EXIT_OK if report.ok() else EXIT_VERIFICATION


def _check_out(path: str) -> None:
    """Reject an ``--out`` path that cannot be opened for writing, before
    a sweep spends its time; a file created by the probe is removed."""
    existed = os.path.exists(path)
    try:
        with open(path, "ab"):
            pass
    except OSError as exc:
        raise ContractViolation(
            f"--out cannot be written: {path!r} ({exc.strerror})"
        ) from None
    if not existed:
        os.remove(path)


def _cmd_sweep(args) -> int:
    if args.out:
        _check_out(args.out)
    config = SweepConfig(
        k_min=args.k_min,
        k_max=args.k_max,
        n=args.n,
        count=args.count,
        seed=args.seed,
        jobs=args.jobs,
    )
    return _emit_report(args.sweep(config), args)


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, and the parser of each command by its name."""
    parser = _Parser(
        prog="csmulmod",
        description="Carry-save modular multiplication kernel and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Parser] = {}

    p_mul = commands["mulmod"] = sub.add_parser(
        "mulmod", help="multiply two numbers modulo R"
    )
    p_mul.add_argument("--n", type=_decimal, required=True, help="working width in bits")
    p_mul.add_argument("--mod", required=True, help="modulus R (hex)")
    p_mul.add_argument("--a", required=True, help="multiplier A (hex)")
    p_mul.add_argument("--b", required=True, help="multiplicand B (hex)")
    p_mul.add_argument("--trace", action="store_true", help="show per-step worksheets")
    p_mul.add_argument("--json", action="store_true")
    p_mul.set_defaults(func=_cmd_mulmod)

    p_pre = commands["precompute"] = sub.add_parser(
        "precompute", help="show the derived constant set"
    )
    p_pre.add_argument("--n", type=_decimal, required=True)
    p_pre.add_argument("--mod", required=True)
    p_pre.add_argument("--json", action="store_true")
    p_pre.set_defaults(func=_cmd_precompute)

    for name, sweep, summary in (
        ("sweep", exhaustive_sweep, "check every instance of a k range"),
        ("hunt", hunt_shrink_cycles, "run the exhaustive sweep, its report labelled hunt"),
        ("random", random_sweep, "check seeded random instances at width n"),
    ):
        p = commands[name] = sub.add_parser(name, help=summary)
        if sweep is random_sweep:
            p.add_argument("--n", type=_decimal, required=True)
            p.add_argument("--count", type=_decimal, required=True)
            p.add_argument("--k-min", dest="k_min", type=_decimal, default=None)
            p.add_argument("--k-max", dest="k_max", type=_decimal, default=None)
            p.add_argument("--seed", type=_decimal, required=True)
        else:
            p.add_argument("--k-min", dest="k_min", type=_decimal, default=None)
            p.add_argument("--k-max", dest="k_max", type=_decimal, default=None)
            p.add_argument("--n", type=_decimal, default=None)
            p.set_defaults(count=None, seed=None)
        p.add_argument("--jobs", type=_decimal, default=1)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_sweep, sweep=sweep)

    return parser, commands


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    # The top-level parser only picks a command by argv[0] and hands it the
    # rest, so a call that starts with a command name goes straight to that
    # command's parser, which skips the top-level pass over argv. Help, a
    # missing or unknown command and an option before the command stay with
    # the top-level parser.
    command = commands.get(argv[0]) if argv else None
    try:
        if command is not None:
            args = command.parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        return args.func(args)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except InvariantViolation as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:
        # A fault of the program, never of the input: keep it off exit 1.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def run() -> None:
    sys.exit(main())
