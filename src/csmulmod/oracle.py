"""Independent reference arithmetic used to certify the pipeline.

Nothing here calls the kernel's register code: every function uses
ordinary carry-propagating integer arithmetic, so a bug in the register
model cannot hide inside its own checker.

An exhaustive run is checked on packed ints, lane i in field i, a whole
batch of moduli at once; the sliced kernel packs its outputs to the
width ``field_bytes`` defines.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvariantViolation

__all__ = [
    "exhaustive_mismatches",
    "field_bytes",
    "fold_pair",
    "ref_mulmod",
    "repeated",
    "replay_step_wide",
]

_BYTES = bytes(range(256))


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


# The longest pattern built so far of each unit, as (count, pattern): a
# sweep builds a unit's pattern only when a batch needs more repeats than
# any before it. Keyed on the count, since a unit's top byte may be 0.
_kept: dict[bytes, tuple[int, int]] = {}


def repeated(unit: bytes, count: int) -> int:
    """``unit`` repeated at least ``count`` times, least significant byte
    first: the count rounded up to a power of two, so that a sweep's
    growing batches build few patterns. An AND with a value of ``count``
    units cuts it to those, at the cost of that value's size."""
    kept, pattern = _kept.get(unit, (0, 0))
    if count > kept:
        kept = 1 << (count - 1).bit_length()
        pattern = int.from_bytes(unit * kept, "little")
        _kept[unit] = kept, pattern
    return pattern


def exhaustive_mismatches(P: int, Q: int, moduli: Sequence[int]) -> list[int]:
    """Lanes of a batch run over every pair of each modulus in ``moduli``
    whose result pair is not below its R or does not fold to
    ``(A * B) mod R``, in lane order.

    Each modulus R owns a segment of R*R lanes, after those of the moduli
    before it; lane ``A*R + B`` of the segment is the instance (A, B). In
    ``P`` and ``Q`` field i, least significant byte first, holds lane i's
    entry; fields past the last segment are not part of the run. An entry
    has one bit more than the largest R, so a field has
    ``field_bytes(R.bit_length() + 1)`` bytes: F bits, and every
    ``R <= 2**(F-1)``. The whole batch is checked at once on the packed
    ints (``_fields_agree``); only a batch that fails there is searched,
    lane by lane, with ``fold_pair``. A search that finds no bad lane
    although the batch's own lanes failed the packed check is a fault of
    the oracle: it raises ``InvariantViolation``.
    """
    width = field_bytes(max(moduli).bit_length() + 1)
    if _fields_agree(P, Q, moduli, width):
        return []
    lanes = sum(R * R for R in moduli)
    run = (1 << 8 * width * lanes) - 1
    P, Q = P & run, Q & run
    p, q = (packed.to_bytes(width * lanes, "little") for packed in (P, Q))
    bad, lane = [], 0
    for R in moduli:
        for A in range(R):
            for B in range(R):
                field = slice(width * lane, width * (lane + 1))
                x = int.from_bytes(p[field], "little")
                y = int.from_bytes(q[field], "little")
                if not (x < R and y < R and fold_pair(x, y, R) == A * B % R):
                    bad.append(lane)
                lane += 1
    # A set bit past the last lane fails the packed check on its own; with
    # those cut off, a batch whose every lane passes must pass it too.
    if not bad and not _fields_agree(P, Q, moduli, width):
        raise InvariantViolation(
            "oracle packed check failed a batch in which no lane fails"
        )
    return bad


def _fields_agree(P: int, Q: int, moduli: Sequence[int], width: int) -> bool:
    """Whether every lane's pair is below its R and folds to
    ``(A * B) mod R``: the pairs folded on the packed ints against the
    expected residues, packed the same way."""
    folded = _folded(P, Q, moduli, width)
    return folded is not None and folded == _expected(moduli, width)


def _folded(P: int, Q: int, moduli: Sequence[int], width: int) -> bytes | None:
    """Each lane's pair folded to one residue, packed in fields of
    ``width`` bytes; None if an entry is not below its R or a set bit lies
    past the last lane.

    Each field has F = 8 * ``width`` bits with ``R <= 2**(F-1)``, and its
    top bit is a guard: a value x below 2**(F-1) is at least R exactly
    when x + 2**(F-1) - R sets it. Neither that sum nor a pair's sum
    (below 2R) reaches the next field. A constant holds each lane's R in
    its field, so one pass serves every modulus of the batch. The pairs
    are folded with one packed add and a field-wise conditional subtract
    of R.
    """
    F = 8 * width
    lanes = sum(R * R for R in moduli)
    if max(P.bit_length(), Q.bit_length()) > F * lanes:
        return None
    RR = int.from_bytes(
        b"".join(R.to_bytes(width, "little") * (R * R) for R in moduli), "little"
    )
    guard = repeated(bytes(width - 1) + b"\x80", lanes) & ((1 << F * lanes) - 1)
    lift = guard - RR
    # A field with its guard bit set fails here on its own, so a lifted
    # entry's carry into the next field cannot hide it.
    if (P | Q | (P + lift) | (Q + lift)) & guard:
        return None
    S = P + Q
    S -= ((((S + lift) & guard) >> (F - 1)) * ((1 << F) - 1)) & RR
    return S.to_bytes(width * lanes, "little")


def _expected(moduli: Sequence[int], width: int) -> bytes:
    """``(A * B) mod R`` of every lane of the batch, packed as ``_folded``
    packs. Entry j of (0, 1, ..., R-1) repeated R times is j mod R, so row
    A of a modulus, ``(A * B) mod R`` for B = 0..R-1, is every A-th entry
    of that ramp from entry 0 on (row 0, whose step would be 0, is zeros).
    Byte g of each field is read off the ramp of byte g of (0, ..., R-1).
    """
    table = bytearray(width * sum(R * R for R in moduli) if width > 1 else 0)
    for g in range(width):
        rows = []
        for R in moduli:
            ramp = _byte_ramp(R, g) * R
            rows.append(bytes(R))
            rows += (ramp[0 : A * R : A] for A in range(1, R))
        if width == 1:
            return b"".join(rows)
        table[g::width] = b"".join(rows)
    return bytes(table)


def _byte_ramp(R: int, g: int) -> bytes:
    """Byte g of each of 0, 1, ..., R-1, built from whole runs: the bytes
    0..255 in turn, each repeated 256**g times, cut to R bytes."""
    if g == 0:
        return (_BYTES * -(-R // 256))[:R]
    run = 1 << 8 * g
    return b"".join(bytes((v & 255,)) * run for v in range(-(-R // run)))[:R]


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
