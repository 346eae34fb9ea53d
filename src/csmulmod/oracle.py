"""Independent reference arithmetic used to certify the pipeline.

Nothing here calls the kernel's register code: every function uses
ordinary carry-propagating integer arithmetic, so a bug in the register
model cannot hide inside its own checker.
"""

from __future__ import annotations

import sys
from array import array
from operator import add
from typing import Sequence

__all__ = [
    "exhaustive_mismatches",
    "fold_pair",
    "ref_mulmod",
    "replay_step_wide",
]

# array typecode of an unsigned field, by its width in bytes
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


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

    The whole run is checked at once on packed fields (``_fields_agree``);
    only a run that fails there is searched row by row.
    """
    if _fields_agree(p, q, R):
        return []
    return _search_rows(p, q, R)


def _field_bytes(R: int) -> int | None:
    """The narrowest field, in bytes, whose top bit can guard a compare
    with R (``R <= 2**(F-1)``); None when R needs more than 64 bits."""
    return next((w for w in _FIELD_CODES if R <= 1 << (8 * w - 1)), None)


def _little(fields: array) -> bytes:
    """The array's bytes, each field least significant byte first."""
    if sys.byteorder != "little":
        fields.byteswap()
    return fields.tobytes()


def _packed(values: Sequence[int], width: int) -> int | None:
    """``values`` as one int whose field i (``width`` bytes) is values[i],
    or None when some value does not fit a field.

    A memoryview whose lanes are fields of that width is read through its
    bytes, not value by value.
    """
    code = _FIELD_CODES[width]
    if isinstance(values, memoryview) and values.format == code:
        values = values.tobytes()
    try:
        return int.from_bytes(_little(array(code, values)), "little")
    except (OverflowError, TypeError):
        return None


def _fields_agree(p: Sequence[int], q: Sequence[int], R: int) -> bool:
    """Whether every lane's pair is below R and folds to ``(A * B) mod R``,
    computed field-wise on packed ints.

    Each field has F bits with ``R <= 2**(F-1)``, and its top bit is a
    guard: a value x below 2**(F-1) is at least R exactly when
    x + 2**(F-1) - R sets it. Neither that sum nor a pair's sum (below 2R)
    reaches the next field. The pairs are folded with one packed add and
    a field-wise conditional subtract of R; expected row A is row A-1 plus
    (0, 1, ..., R-1), conditionally reduced the same way.
    """
    lanes = R * R
    width = _field_bytes(R)
    if width is None or len(p) != lanes or len(q) != lanes:
        return False
    P, Q = _packed(p, width), _packed(q, width)
    if P is None or Q is None:
        return False
    F = 8 * width
    half = 1 << (F - 1)
    one = b"\1" + bytes(width - 1)
    low = int.from_bytes(one * lanes, "little")
    guard, lift = low * half, low * (half - R)
    if (P | Q) & guard or (P + lift) & guard or (Q + lift) & guard:
        return False
    S = P + Q
    S -= (((S + lift) & guard) >> (F - 1)) * R

    row_low = int.from_bytes(one * R, "little")
    row_guard, row_lift = row_low * half, row_low * (half - R)
    ramp = int.from_bytes(_little(array(_FIELD_CODES[width], range(R))), "little")
    rows = []
    row = 0
    for _ in range(R):
        rows.append(row.to_bytes(width * R, "little"))
        row += ramp
        row -= (((row + row_lift) & row_guard) >> (F - 1)) * R
    return S.to_bytes(width * lanes, "little") == b"".join(rows)


def _search_rows(p: Sequence[int], q: Sequence[int], R: int) -> list[int]:
    """``exhaustive_mismatches`` row by row: each row of R lanes (one A) is
    folded the way fold_pair folds and compared whole with its reference
    residues; only a row that differs is searched lane by lane."""
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
