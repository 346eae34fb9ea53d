"""Post-loop reduction that clears the accumulator's top bits.

The loop leaves both registers one bit wider than the working width. This
stage cycles a fixed rule set until both top bits are clear and the bits
just below them are not simultaneously set, subtracting a power-of-two
span each cycle (by letting an addition overflow, or by clearing register
bits after it) and compensating with the matching precomputed constant.
Each rule adds first and clears second.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .bitcore import csa, top_up
from .errors import InvariantViolation
from .mainloop import Accumulator, _make_acc
from .modparams import ModulusParams

__all__ = [
    "NORMAL_CYCLE_CAP",
    "ShrinkCycle",
    "ShrinkReport",
    "run_shrink",
    "shrink_rules",
]

# The proven bound on rule firings per reduction.
NORMAL_CYCLE_CAP = 4


class ShrinkCycle(NamedTuple):
    """One rule firing: state after the top-up, rule id, state after the rule."""

    topup_p: int
    topup_q: int
    rule: int
    p: int
    q: int


class ShrinkReport(NamedTuple):
    """Cycle count, the rules fired in order, and entry/exit snapshots."""

    cycles: int
    rules_fired: tuple[int, ...]
    entry_p: int
    entry_q: int
    exit_p: int
    exit_q: int
    snapshots: tuple[ShrinkCycle, ...]


def shrink_rules(
    pn: int, qn: int, pq_next: int
) -> tuple[tuple[int, int, int, int], int, int]:
    """Select the rule from p's and q's top bits and their ANDed
    next-to-top bit: ``(rules, clear_p, clear_q)``.

    ``rules`` holds one mask per rule 1..4, at most one of them set, and
    ``clear_p`` and ``clear_q`` say whether the rule clears p's and q's top
    bit after its addition. Expects the bits after the cycle's top-up
    (the sliced kernel reads them without writing one), so a set top bit
    can only live in p and a doubly-set next-to-top pair means both
    registers carry weight there. Priority order:

        1: both top bits set            (overflow itself pays the 2-span debt)
        2: top bit and both next bits   (add double-span constant, clear tops)
        3: top bit alone                (add one-span constant, clear p's top)
        4: both next-to-top bits        (add one-span constant, clear q's top)

    No rule means p and q both fit in n bits and their ANDed next-to-top
    bit is clear, which is exactly the condition the next stage requires.
    Written only with ``&``, ``|`` and ``x & ~y``, so the arguments may be
    0/1 bits or lane planes of the bit-sliced kernel alike.
    """
    # After the top-up a set qn implies a set pn, so rule 1's ``pn & qn``
    # equals ``qn`` on every input the kernels give. The ``pn &`` stays: it
    # keeps the four masks disjoint on all 8 inputs, not only on topped-up
    # ones.
    r2 = pn & pq_next & ~qn
    r3 = pn & ~(qn | pq_next)
    r4 = pq_next & ~pn
    return (pn & qn, r2, r3, r4), r2 | r3, r2 | r4


def _shrink_entry(pn: int, qn: int, pq_next: int) -> tuple[int, int, int]:
    """``shrink_rules`` on 0/1 bits as ``(rule or 0, clear_p, clear_q)``."""
    rules, clear_p, clear_q = shrink_rules(pn, qn, pq_next)
    return (rules.index(1) + 1 if 1 in rules else 0), clear_p, clear_q


# shrink_rules on every input, as _SHRINK_TABLE[p_n << 2 | q_n << 1 |
# (p & q)_{n-1}]: the fired rule (0 for none) and the top bits it clears.
# run_shrink reads its rule here, so a cycle scans no masks.
_SHRINK_TABLE = tuple(_shrink_entry(*bits) for bits in product((0, 1), repeat=3))


def run_shrink(
    acc: Accumulator, params: ModulusParams, trace: bool = True
) -> tuple[Accumulator, ShrinkReport | int]:
    """Cycle until the exit shape is reached.

    Each cycle tops up the two top bit positions, then applies one rule.
    The rule comes from ``_SHRINK_TABLE``, ``shrink_rules`` tabulated at
    import; after the top-up q's top bit and the ANDed next-to-top bit
    are bits n and n-1 of p & q, so one shift of it reads both. A cycle
    that fires no rule ends the stage, and the pair then carries only its
    top-up, which preserves the pair's sum. Needing more than
    ``NORMAL_CYCLE_CAP`` cycles, the proven worst case, raises
    ``InvariantViolation``.

    Every rule performs its addition in the (n+1)-bit carry-save adder
    and clears bits afterwards. Rules 2-4 must lose nothing in the adder,
    which is checked, and a bit cleared is then always set at clearing
    time: rules 2 and 3 have p_n=1 and q_n=0 after the top-up, so their
    sum bit n is unset only where the constant's bit n is set, and then
    the adder drops maj(1, 0, 1) = 1; rules 2 and 4 have
    p_{n-1}=q_{n-1}=1, so their carry bit n is always set. Rule 1 needs
    no check: it fires only on p_n = q_n = 1, so the adder's majority at
    bit n is maj(1, 1, x) = 1 for any constant, and it always drops
    exactly 2**(n+1), the doubled span its constant pays for. That holds
    for every pair of (n+1)-bit registers and every constant that fits
    them.

    Returns the exit pair and the report, with one ``ShrinkCycle`` per
    fired rule. Untraced (``trace`` False, as an untraced ``mulmod``
    passes it) the cycles build no record, and the cycle count stands in
    place of the report.
    """
    n = params.n
    entry_p, entry_q, _ = acc
    p, q = entry_p, entry_q
    tops = 3 << (n - 1)
    snapshots: list[ShrinkCycle] = []
    cycles = 0
    while True:
        p, q = top_up(p, q, tops)
        rule, clear_p, clear_q = _SHRINK_TABLE[
            ((p >> n) & 1) << 2 | (((p & q) >> (n - 1)) & 3)
        ]
        if not rule:
            break
        const = params.rx[1] if rule <= 2 else params.rn
        s, c = csa(p, q, const, params.mask)
        if rule != 1 and p + q + const != s + c:
            raise InvariantViolation("adder lost a bit outside rule 1")
        if cycles == NORMAL_CYCLE_CAP:
            raise InvariantViolation(
                f"shrink needed more than {NORMAL_CYCLE_CAP} cycles "
                f"(entry p={entry_p:#x}, q={entry_q:#x})"
            )
        cycles += 1
        # Each bit cleared is set, so flipping it clears it.
        s ^= clear_p << n
        c ^= clear_q << n
        if trace:
            snapshots.append(ShrinkCycle(p, q, rule, s, c))
        p, q = s, c
    acc = _make_acc((p, q, n))
    if not trace:
        return acc, cycles
    rules_fired = tuple(cycle.rule for cycle in snapshots)
    return acc, ShrinkReport(cycles, rules_fired, entry_p, entry_q, p, q, tuple(snapshots))
