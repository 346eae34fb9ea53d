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

from itertools import product
from typing import NamedTuple

from .bitcore import csa, top_up
from .errors import InvariantViolation
from .mainloop import Accumulator, _make_acc
from .modparams import ModulusParams

__all__ = [
    "SqueezeReport",
    "qcu_apply",
    "squeeze_rules",
    "squeeze_topup",
]


class SqueezeReport(NamedTuple):
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
    p, q, n = acc
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
    return _make_acc((p, q, n))


def squeeze_rules(
    p_hi: int, p_lo: int, q_lo: int, r_bit: int, ones: int
) -> tuple[tuple[int, ...], tuple[int, int, int]]:
    """Select the rule and edit its bits: ``(rules, (p_hi, p_lo, q_lo))``.

    Selection keys on three accumulator bits (p's bits n-1 and n-2, q's
    bit n-2, all post-top-up) plus the modulus guide bit ``r_bit``, in
    priority order; the conditions cover every combination, so exactly one
    of the six masks in ``rules`` is set:

        1: p bit n-1 clear                      done, no action
        2: q bit n-2 set                        clear the three bits, add rn
        3: guide 0, p bit n-2 set               clear p's two bits, add rm
        4: guide 0, p bit n-2 clear             rebalance bits, no addition
        5: guide 1, p bit n-2 clear             done, no action
        6: guide 1, p bit n-2 set               rebalance bits, no addition

    The second item holds the three bits after the rule's edits. Written
    only with ``&``, ``|`` and ``x & ~y``, so the arguments may be 0/1 bits
    (``ones`` = 1) or lane planes of the bit-sliced kernel (``ones`` holding
    every lane) alike; rule 1 needs ``ones`` for its complement.
    """
    r2 = p_hi & q_lo
    rest = p_hi & ~q_lo
    r34 = rest & ~r_bit
    r56 = rest & r_bit
    r3, r4 = r34 & p_lo, r34 & ~p_lo
    r5, r6 = r56 & ~p_lo, r56 & p_lo
    return (ones & ~p_hi, r2, r3, r4, r5, r6), (
        p_hi & ~(r2 | r3 | r4),
        (p_lo & ~(r2 | r3 | r6)) | r4,
        (q_lo & ~r2) | r4 | r6,
    )


def _squeeze_entry(p_hi: int, p_lo: int, q_lo: int, r_bit: int) -> tuple[int, int, int]:
    """``squeeze_rules`` on 0/1 bits as ``(rule, edited p bits, edited q
    bit)``, p's two bits read as one binary number."""
    rules, (e_hi, e_lo, e_q) = squeeze_rules(p_hi, p_lo, q_lo, r_bit, 1)
    return rules.index(1) + 1, e_hi << 1 | e_lo, e_q


# squeeze_rules on every input, as _SQUEEZE_TABLE[p_top << 2 | q_lo << 1 |
# r_bit], with p_top p's bits n-1 and n-2 and q_lo q's bit n-2 after the
# top-up: the rule and the bits its edits leave. qcu_apply reads its rule
# here, so a call scans no masks.
_SQUEEZE_TABLE = tuple(_squeeze_entry(*bits) for bits in product((0, 1), repeat=4))


def qcu_apply(
    acc: Accumulator, params: ModulusParams, trace: bool = True
) -> tuple[Accumulator, SqueezeReport | int]:
    """Apply exactly one of the six final reduction rules of
    ``squeeze_rules``: edit the three bits, then add rn (rule 2) or rm
    (rule 3).

    The rule and its edited bits come from ``_SQUEEZE_TABLE``,
    ``squeeze_rules`` tabulated at import. Rules 4 and 6 move weight
    between the registers without changing the pair's exact integer sum;
    rules 2 and 3 subtract a fixed amount via the bit edits and add the
    constant congruent to it. Untraced (``trace`` False, as an untraced
    ``mulmod`` passes it) it builds no report: the rule stands in its
    place.
    """
    n = params.n
    p, q, _ = acc
    lo = n - 2
    p_top, q_lo = (p >> lo) & 3, (q >> lo) & 1
    rule, p_edited, q_lo_edited = _SQUEEZE_TABLE[p_top << 2 | q_lo << 1 | params.r_bit]
    # The edits touch bits n-1 and n-2 only: flip those that changed.
    edited_p = p ^ ((p_top ^ p_edited) << lo)
    edited_q = q ^ ((q_lo ^ q_lo_edited) << lo)
    if rule == 2 or rule == 3:
        const = params.rn if rule == 2 else params.rm
        out_p, out_q = csa(edited_p, edited_q, const, params.mask)
    else:
        out_p, out_q = edited_p, edited_q
    acc = _make_acc((out_p, out_q, n))
    if not trace:
        return acc, rule
    return acc, SqueezeReport(rule, p, q, edited_p, edited_q, out_p, out_q)
