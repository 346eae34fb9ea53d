"""Independent reference arithmetic used to certify the pipeline.

Nothing here calls the kernel's register code: every function uses
ordinary carry-propagating integer arithmetic, so a bug in the register
model cannot hide inside its own checker.

An exhaustive run is checked on packed ints, lane i in field i; the
sliced kernel packs its outputs to the width ``field_bytes`` defines.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

__all__ = [
    "exhaustive_mismatches",
    "field_bytes",
    "fold_pair",
    "ref_mulmod",
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


def field_bytes(bits: int) -> int:
    """Bytes per field of a packed int whose fields hold ``bits``-bit
    values: the bits rounded up to whole bytes."""
    return -(-bits // 8)


def exhaustive_mismatches(P: int, Q: int, R: int) -> list[int]:
    """Lanes ``i = A*R + B`` of a run over every pair of modulus R whose
    result pair is not below R or does not fold to ``(A * B) mod R``, in
    lane order.

    In ``P`` and ``Q`` field i, least significant byte first, holds lane
    i's entry; fields past lane R*R - 1 are not part of the run. R has k
    bits and an entry k+1, so a field has ``field_bytes(k + 1)`` bytes:
    F >= k+1 bits, and ``R <= 2**(F-1)``. The whole run is checked at once
    on the packed ints (``_fields_agree``); only a run that fails there is
    searched row by row.
    """
    width = field_bytes(R.bit_length() + 1)
    if _fields_agree(P, Q, R, width):
        return []
    return _search_rows(P, Q, R, width)


def _fields_agree(P: int, Q: int, R: int, width: int) -> bool:
    """Whether every lane's pair is below R and folds to ``(A * B) mod R``,
    computed field-wise on the packed ints.

    Each field has F = 8 * ``width`` bits with ``R <= 2**(F-1)``, and its
    top bit is a guard: a value x below 2**(F-1) is at least R exactly
    when x + 2**(F-1) - R sets it. Neither that sum nor a pair's sum
    (below 2R) reaches the next field. The pairs are folded with one
    packed add and a field-wise conditional subtract of R; expected row A
    is row A-1 plus (0, 1, ..., R-1), conditionally reduced the same way.
    """
    lanes = R * R
    F = 8 * width
    half = 1 << (F - 1)
    one = b"\1" + bytes(width - 1)
    low = int.from_bytes(one * lanes, "little")
    guard, lift = low * half, low * (half - R)
    if (P | Q) >> (F * lanes) or (P | Q) & guard or (P + lift) & guard or (Q + lift) & guard:
        return False
    S = P + Q
    S -= (((S + lift) & guard) >> (F - 1)) * R

    row_low = int.from_bytes(one * R, "little")
    row_guard, row_lift = row_low * half, row_low * (half - R)
    # The ramp (0, 1, ..., R-1) is the sum of B * x**B with x = 2**F, and
    # (x - 1) times that sum telescopes to (R-1) * x**R - (row_low - 1).
    ramp = (((R - 1) << (F * R)) - row_low + 1) // ((1 << F) - 1)
    rows = []
    row = 0
    for _ in range(R):
        rows.append(row.to_bytes(width * R, "little"))
        row += ramp
        row -= (((row + row_lift) & row_guard) >> (F - 1)) * R
    return S.to_bytes(width * lanes, "little") == b"".join(rows)


def _search_rows(P: int, Q: int, R: int, width: int) -> list[int]:
    """``exhaustive_mismatches`` row by row: each row of R lanes (one A) is
    folded the way fold_pair folds and compared whole with its reference
    residues; only a row that differs is searched lane by lane."""
    row_bytes = width * R
    run = (1 << (8 * row_bytes * R)) - 1
    p, q = ((packed & run).to_bytes(row_bytes * R, "little") for packed in (P, Q))

    def fields(data: bytes, start: int) -> list[int]:
        # Byte g of each field of the row is every width-th byte from g on.
        stop = start + row_bytes
        values = list(data[start:stop:width])
        for g in range(1, width):
            values = [v | b << 8 * g for v, b in zip(values, data[start + g : stop : width])]
        return values

    bad = []
    for A in range(R):
        lo = A * R
        p_row, q_row = fields(p, A * row_bytes), fields(q, A * row_bytes)
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
