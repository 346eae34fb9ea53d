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


def _parse_hex(text: str, name: str) -> int:
    t = text.strip().lower().removeprefix("0x")
    try:
        value = int(t, 16)
    except ValueError:
        raise ContractViolation(f"{name} is not valid hexadecimal: {text!r}") from None
    if value < 0:
        raise ContractViolation(f"{name} must be non-negative: {text!r}")
    return value


def _hex(value: int) -> str:
    return format(value, "X")


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


def _pair(hexes: list[str]) -> str:
    return f"({hexes[0]},{hexes[1]})"


def _cmd_mulmod(args) -> int:
    R = _parse_hex(args.mod, "--mod")
    A = _parse_hex(args.a, "--a")
    B = _parse_hex(args.b, "--b")
    result = mulmod(A, B, R, args.n, trace=args.trace)
    doc = _mulmod_json(result)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
        return EXIT_OK
    print(f"P={doc['p']} Q={doc['q']}")
    print(f"shrink_cycles={doc['shrink_cycles']} squeeze_rule={doc['squeeze_rule']}")
    if "trace" in doc:
        # The worksheets print binary, so they read the step records.
        b_shifted = B << result.traces.params.shift
        for st in result.traces.steps:
            print(format_worksheet(st, args.n, b_shifted))
        sh = doc["trace"]["shrink"]
        print(
            f"shrink: rules={sh['rules_fired']} "
            f"entry={_pair(sh['entry'])} exit={_pair(sh['exit'])}"
        )
        for i, cyc in enumerate(sh["snapshots"], 1):
            print(
                f"  cycle {i}: topup={_pair(cyc['topup'])} "
                f"rule {cyc['rule']} -> {_pair(cyc['out'])}"
            )
        sq = doc["trace"]["squeeze"]
        print(
            f"squeeze: rule {sq['rule']} entry={_pair(sq['entry'])} "
            f"edited={_pair(sq['edited'])} exit={_pair(sq['exit'])}"
        )
    return EXIT_OK


def _mulmod_json(result: MulResult) -> dict:
    doc = {
        "p": _hex(result.p),
        "q": _hex(result.q),
        "shrink_cycles": result.shrink_cycles,
        "squeeze_rule": result.squeeze_rule,
    }
    if result.traces is not None:
        tr = result.traces
        doc["trace"] = {
            "steps": [
                {
                    "i": st.i,
                    "a_i": st.a_i,
                    "p_in": _hex(st.p_in),
                    "q_in": _hex(st.q_in),
                    "s": _hex(st.s),
                    "c": _hex(st.c),
                    "f": st.f,
                    "ry": _hex(st.ry),
                    "p_out": _hex(st.p_out),
                    "q_out": _hex(st.q_out),
                    "discarded": _hex(st.discarded),
                }
                for st in tr.steps
            ],
            "shrink": {
                "cycles": tr.shrink.cycles,
                "rules_fired": list(tr.shrink.rules_fired),
                "entry": [_hex(tr.shrink.entry_p), _hex(tr.shrink.entry_q)],
                "exit": [_hex(tr.shrink.exit_p), _hex(tr.shrink.exit_q)],
                "snapshots": [
                    {
                        "topup": [_hex(c.topup_p), _hex(c.topup_q)],
                        "rule": c.rule,
                        "out": [_hex(c.p), _hex(c.q)],
                    }
                    for c in tr.shrink.snapshots
                ],
            },
            "squeeze": {
                "rule": tr.squeeze.rule,
                "entry": [_hex(tr.squeeze.entry_p), _hex(tr.squeeze.entry_q)],
                "edited": [_hex(tr.squeeze.edited_p), _hex(tr.squeeze.edited_q)],
                "exit": [_hex(tr.squeeze.exit_p), _hex(tr.squeeze.exit_q)],
            },
        }
    return doc


def _cmd_precompute(args) -> int:
    R = _parse_hex(args.mod, "--mod")
    params = precompute(R, args.n)
    doc = {
        "n": params.n,
        "k": params.k,
        "shift": params.shift,
        "mod": _hex(params.modulus),
        "mod_shifted": _hex(params.modulus_shifted),
        "r_n": _hex(params.rn),
        "r_m": _hex(params.rm),
        "r_1": _hex(params.rx[1]),
        "r_2": _hex(params.rx[2]),
        "r_3": _hex(params.rx[3]),
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
        sys.stdout.buffer.write(payload)
        print(report.summary(), file=sys.stderr)
    else:
        print(report.summary())
    return EXIT_OK if report.ok() else EXIT_VERIFICATION


def _cmd_sweep(args) -> int:
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
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="csmulmod",
        description="Carry-save modular multiplication kernel and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mulmod", help="multiply two numbers modulo R")
    p_mul.add_argument("--n", type=int, required=True, help="working width in bits")
    p_mul.add_argument("--mod", required=True, help="modulus R (hex)")
    p_mul.add_argument("--a", required=True, help="multiplier A (hex)")
    p_mul.add_argument("--b", required=True, help="multiplicand B (hex)")
    p_mul.add_argument("--trace", action="store_true", help="show per-step worksheets")
    p_mul.add_argument("--json", action="store_true")
    p_mul.set_defaults(func=_cmd_mulmod)

    p_pre = sub.add_parser("precompute", help="show the derived constant set")
    p_pre.add_argument("--n", type=int, required=True)
    p_pre.add_argument("--mod", required=True)
    p_pre.add_argument("--json", action="store_true")
    p_pre.set_defaults(func=_cmd_precompute)

    for name, sweep in (
        ("sweep", exhaustive_sweep),
        ("hunt", hunt_shrink_cycles),
        ("random", random_sweep),
    ):
        p = sub.add_parser(name)
        if sweep is random_sweep:
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--count", type=int, required=True)
            p.add_argument("--k-min", dest="k_min", type=int, default=None)
            p.add_argument("--k-max", dest="k_max", type=int, default=None)
            p.add_argument("--seed", type=int, required=True)
        else:
            p.add_argument("--k-min", dest="k_min", type=int, default=None)
            p.add_argument("--k-max", dest="k_max", type=int, default=None)
            p.add_argument("--n", type=int, default=None)
            p.set_defaults(count=None, seed=None)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_cmd_sweep, sweep=sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
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
