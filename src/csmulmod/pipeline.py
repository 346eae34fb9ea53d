"""End-to-end modular multiplication: normalize, loop, reduce twice, denormalize.

The result is deliberately a pair (p, q) with p + q congruent to A * B and
both entries below the modulus; folding the pair into a single number
needs one carry-propagating addition, which lives outside this module's
computational model (the verification helpers do it with the reference
arithmetic instead).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ContractViolation, InvariantViolation
from .mainloop import StepTrace, run_loop
from .modparams import (
    ModulusParams,
    check_int,
    check_low_bits,
    precompute,
    shift_left_operand,
    shift_right_result,
)
from .oracle import fold_pair, ref_mulmod
from .shrink import ShrinkReport, run_shrink
from .squeeze import SqueezeReport, qcu_apply, squeeze_topup

__all__ = [
    "MulResult",
    "RunTrace",
    "mulmod",
    "mulmod_checked",
]


class RunTrace(NamedTuple):
    """All per-stage records collected when tracing is requested."""

    params: ModulusParams
    steps: tuple[StepTrace, ...]
    shrink: ShrinkReport
    squeeze: SqueezeReport


class MulResult(NamedTuple):
    """Final pair plus the reduction diagnostics of the run.

    p and q are in the original (unshifted) domain: both below the
    modulus, with (p + q) mod R equal to (A * B) mod R.
    """

    p: int
    q: int
    shrink_cycles: int
    squeeze_rule: int
    traces: RunTrace | None


def mulmod(
    A: int,
    B: int,
    R: int,
    n: int,
    trace: bool = False,
    *,
    params: ModulusParams | None = None,
) -> MulResult:
    """Multiply A by B modulo R inside n-bit working registers.

    ``params`` lets sweeps reuse one precomputed constant set across many
    (A, B) pairs of the same modulus. Each input is checked once, by the
    stage it enters; the seams between stages are checked on every call
    (cleared low bits after each stage, squeeze outputs below the shifted
    modulus), and shrink raises if it needs more than its 4 cycles.
    """
    if params is None:
        params = precompute(R, n)
    else:
        check_int("R", R)
        check_int("n", n)
        if params.modulus != R or params.n != n:
            raise ContractViolation(
                "params built for "
                f"(R={params.modulus}, n={params.n}), called with (R={R}, n={n})"
            )
    b_shifted = shift_left_operand(B, params)

    acc, steps = run_loop(A, b_shifted, params, trace=trace)
    check_low_bits(acc.p, acc.q, params, "main loop")

    acc, shrink_report = run_shrink(acc, params)
    check_low_bits(acc.p, acc.q, params, "shrink")

    acc, squeeze_report = qcu_apply(squeeze_topup(acc), params)
    if acc.p >= params.modulus_shifted or acc.q >= params.modulus_shifted:
        raise InvariantViolation(
            "squeeze exit above the shifted modulus "
            f"(p={acc.p:#x}, q={acc.q:#x})"
        )

    p_out, q_out = shift_right_result(acc.p, acc.q, params)
    traces = (
        RunTrace(
            params=params,
            steps=tuple(steps),
            shrink=shrink_report,
            squeeze=squeeze_report,
        )
        if trace
        else None
    )
    return MulResult(
        p=p_out,
        q=q_out,
        shrink_cycles=shrink_report.cycles,
        squeeze_rule=squeeze_report.rule,
        traces=traces,
    )


def mulmod_checked(
    A: int,
    B: int,
    R: int,
    n: int,
    *,
    params: ModulusParams | None = None,
) -> tuple[MulResult, bool]:
    """Run mulmod and compare the outcome against the reference arithmetic.

    ``ok`` is True exactly when both outputs are below the modulus and
    their sum lands in the residue class of A * B.
    """
    result = mulmod(A, B, R, n, params=params)
    in_range = result.p < R and result.q < R
    ok = in_range and fold_pair(result.p, result.q, R) == ref_mulmod(A, B, R)
    return result, ok
