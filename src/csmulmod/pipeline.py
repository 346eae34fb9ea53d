"""End-to-end modular multiplication: normalize, loop, reduce twice, denormalize.

The result is deliberately a pair (p, q) with p + q congruent to A * B and
both entries below the modulus; folding the pair into a single number
needs one carry-propagating addition, which lives outside this module's
computational model (the verification helpers do it with the reference
arithmetic instead).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import ContractViolation, InvariantViolation
from .mainloop import StepTrace, run_loop
from .modparams import (
    ModulusParams,
    check_int,
    check_low_bits,
    int_text,
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


# An untraced call builds its result from one tuple through tuple.__new__,
# called from C, as run_loop builds its records: MulResult(...) runs a
# Python __new__. The tests hold the record to MulResult's type and length.
_make_result = functools.partial(tuple.__new__, MulResult)


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
    (cleared low bits after each stage, then both unshifted outputs below
    R), and shrink raises if it needs more than its 4 cycles. So a result
    is always a pair below R. An untraced call builds no stage record:
    shrink and squeeze return only the cycle count and the rule, the two
    fields of ``MulResult`` that an untraced run fills.
    """
    if params is None:
        params = precompute(R, n)
    else:
        check_int("R", R)
        check_int("n", n)
        if params.modulus != R or params.n != n:
            raise ContractViolation(
                "params built for "
                f"(R={params.modulus}, n={params.n}), "
                f"called with (R={int_text(R)}, n={int_text(n)})"
            )
    b_shifted = shift_left_operand(B, params)

    acc, steps = run_loop(A, b_shifted, params, trace=trace)
    check_low_bits(acc.p, acc.q, params, "main loop")

    acc, shrink = run_shrink(acc, params, trace)
    p, q, _ = acc
    check_low_bits(p, q, params, "shrink")

    acc, squeeze = qcu_apply(squeeze_topup(acc), params, trace)
    p, q, _ = acc
    p_out, q_out = shift_right_result(p, q, params)
    if p_out >= R or q_out >= R:
        raise InvariantViolation(
            f"squeeze exit not below the modulus (p={p_out:#x}, q={q_out:#x}, R={R:#x})"
        )

    if not trace:
        return _make_result((p_out, q_out, shrink, squeeze, None))
    return MulResult(
        p_out, q_out, shrink.cycles, squeeze.rule,
        RunTrace(params, tuple(steps), shrink, squeeze),
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

    ``mulmod`` raises unless both outputs are below R, so ``ok`` is True
    exactly when their sum lands in the residue class of A * B.
    """
    result = mulmod(A, B, R, n, params=params)
    return result, fold_pair(result.p, result.q, R) == ref_mulmod(A, B, R)
