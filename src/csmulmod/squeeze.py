"""Final one-shot reduction bringing both registers strictly below the modulus.

Entry requires the previous stage's exit shape: clear top bits and no
doubly-set next-to-top pair. One top-up over the two positions below the
top bit, then exactly one of six rules fires. Unlike the cyclic stage,
rules here edit bits first and add second, and rules defined without an
addition genuinely skip the adder: even adding zero through a carry-save
adder would reshuffle the pair's bits and could disturb the top positions
the rule just fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitcore import csa, top_up
from .errors import InvariantViolation
from .mainloop import Accumulator
from .modparams import ModulusParams

__all__ = [
    "SqueezeReport",
    "qcu_apply",
    "squeeze_topup",
]


@dataclass(frozen=True, slots=True)
class SqueezeReport:
    """The single fired rule with snapshots of each phase.

    ``entry`` is the post-top-up pair handed to the rule selector,
    ``edited`` the pair after the rule's bit edits (equal to entry for the
    two no-op rules), ``exit`` the final pair, both below the shifted
    modulus.
    """

    rule: int
    entry_p: int
    entry_q: int
    edited_p: int
    edited_q: int
    exit_p: int
    exit_q: int


def squeeze_topup(acc: Accumulator) -> Accumulator:
    """Migrate set bits into p at the two positions below the top bit.

    Entry contract (the previous stage's exit): both top bits clear, and
    bit n-1 not set in both registers at once. That makes the treated
    bit n-1 of q always end up clear, so q fits in n-1 bits afterwards.
    """
    n, p, q = acc.n, acc.p, acc.q
    if (p | q) >> n:
        raise InvariantViolation(
            f"squeeze entered with a set top bit (p={p:#x}, q={q:#x})"
        )
    if ((p & q) >> (n - 1)) & 1:
        raise InvariantViolation(
            "squeeze entered with both next-to-top bits set "
            f"(p={p:#x}, q={q:#x})"
        )
    p, q = top_up(p, q, 3 << (n - 2))
    return Accumulator(p, q, n)


def qcu_apply(
    acc: Accumulator, params: ModulusParams
) -> tuple[Accumulator, SqueezeReport]:
    """Apply exactly one of the six final reduction rules.

    Selection keys on three accumulator bits (p's bits n-1 and n-2, q's
    bit n-2, all post-top-up) plus the modulus guide bit, in priority
    order; the conditions cover every combination, so exactly one rule
    fires:

        1: p bit n-1 clear                      done, no action
        2: q bit n-2 set                        clear the three bits, add rn
        3: guide 0, p bit n-2 set               clear p's two bits, add rm
        4: guide 0, p bit n-2 clear             rebalance bits, no addition
        5: guide 1, p bit n-2 clear             done, no action
        6: guide 1, p bit n-2 set               rebalance bits, no addition

    Rules 4 and 6 move weight between the registers without changing the
    pair's exact integer sum; rules 2 and 3 subtract a fixed amount via
    the bit edits and add the constant congruent to it.
    """
    n = params.n
    p, q = acc.p, acc.q
    hi = 1 << (n - 1)
    lo = 1 << (n - 2)

    if not p & hi:
        rule = 1
        edited = out = acc
    elif q & lo:
        rule = 2
        edited = Accumulator(p & ~(hi | lo), q & ~lo, n)
        out = Accumulator(*csa(edited.p, edited.q, params.rn, params.mask), n)
    elif not params.r_bit and p & lo:
        rule = 3
        edited = Accumulator(p & ~(hi | lo), q, n)
        out = Accumulator(*csa(edited.p, q, params.rm, params.mask), n)
    elif not params.r_bit:
        rule = 4
        edited = out = Accumulator((p & ~hi) | lo, q | lo, n)
    elif not p & lo:
        rule = 5
        edited = out = acc
    else:
        rule = 6
        edited = out = Accumulator(p & ~lo, q | lo, n)

    report = SqueezeReport(
        rule=rule,
        entry_p=p,
        entry_q=q,
        edited_p=edited.p,
        edited_q=edited.q,
        exit_p=out.p,
        exit_q=out.q,
    )
    return out, report
