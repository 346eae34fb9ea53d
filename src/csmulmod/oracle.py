"""Independent reference arithmetic used to certify the pipeline.

Nothing here calls the kernel's register code: every function uses
ordinary carry-propagating integer arithmetic, so a bug in the register
model cannot hide inside its own checker.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

__all__ = [
    "exhaustive_mismatches",
    "fold_pair",
    "ref_mulmod",
    "ref_mulmod_by_addition",
    "replay_step_wide",
]


def fold_pair(p: int, q: int, R: int) -> int:
    """Collapse a result pair into a single residue.

    One ordinary addition and at most one conditional subtraction. This is
    exactly the carry-propagating step the kernel itself never performs,
    which is why it lives here rather than in the pipeline.
    """
    if not (0 <= p < R and 0 <= q < R):
        raise ValueError(f"fold expects both entries in [0, {R})")
    total = p + q
    return total - R if total >= R else total


def exhaustive_mismatches(p: Sequence[int], q: Sequence[int], R: int) -> list[int]:
    """Lanes ``i = A*R + B`` of a run over every pair of modulus R whose
    result pair ``(p[i], q[i])`` is not below R or does not fold to
    ``(A * B) mod R``, in lane order.

    Each row of R lanes (one A) is folded the way fold_pair folds and
    compared whole with its reference residues; only a row that differs
    is searched lane by lane.
    """
    bad = []
    for A in range(R):
        lo = A * R
        p_row, q_row = p[lo : lo + R], q[lo : lo + R]
        want = [A * B % R for B in range(R)]
        if max(p_row) < R and max(q_row) < R:
            got = [s - R if s >= R else s for s in map(add, p_row, q_row)]
            if got == want:
                continue
        bad.extend(
            lo + B
            for B in range(R)
            if not (p_row[B] < R and q_row[B] < R)
            or fold_pair(p_row[B], q_row[B], R) != want[B]
        )
    return bad


def ref_mulmod(A: int, B: int, R: int) -> int:
    """Ground-truth (A * B) mod R via arbitrary-precision arithmetic."""
    if R <= 0:
        raise ValueError(f"modulus must be positive, got {R}")
    return (A * B) % R


def ref_mulmod_by_addition(A: int, B: int, R: int) -> int:
    """Second opinion on ref_mulmod: accumulate B repeatedly, A times.

    Structurally different from multiplication followed by division, so
    the two implementations cross-check each other. Only usable for small
    A; the tests run it over every instance of bit length five or less.
    """
    if R <= 0:
        raise ValueError(f"modulus must be positive, got {R}")
    if A < 0 or B < 0:
        raise ValueError("operands must be non-negative")
    b = B
    while b >= R:
        b -= R
    acc = 0
    for _ in range(A):
        acc += b
        if acc >= R:
            acc -= R
    return acc


def replay_step_wide(
    p: int,
    q: int,
    a_i: int,
    b_shifted: int,
    rx_candidates: Sequence[int],
    n: int,
) -> tuple[int, ...]:
    """Replay one loop step without truncation, once per reduction candidate.

    For each candidate constant this recomputes both carry-save additions
    at unlimited width and returns the integer value carried by the bits
    above position n of the two results, i.e. exactly what the (n+1)-bit
    registers would have discarded. Used to certify that the predicted
    overflow count matches the real loss and does not depend on which
    candidate was added.
    """
    x = 2 * p
    y = 2 * q
    z = b_shifted if a_i else 0
    keep = 1 << (n + 1)
    dropped = []
    for ry in rx_candidates:
        s1 = x ^ y ^ z
        c1 = ((x & y) | (z & (x | y))) << 1
        pw = s1 ^ c1 ^ ry
        qw = ((s1 & c1) | (ry & (s1 | c1))) << 1
        dropped.append((pw - pw % keep) + (qw - qw % keep))
    return tuple(dropped)
