"""Bit-sliced exhaustive kernel: every (A, B) pair of many moduli at once.

Every kernel operation is a bitwise function of a few register bit
positions; nothing propagates a carry or compares whole numbers. So the
R * R instances of a modulus can run side by side: lane ``i = A*R + B``
of its segment is one instance, and each register bit is a "plane", a
Python int whose bit i is that register bit of lane i (bitslicing, as in
Biham's DES implementation). A register is a list of planes, index j
holding bit j, so its width is the list's length and its top bits are
the last planes: each stage (``_loop``, ``_shrink``, ``_squeeze``) runs
on registers of any width. Shifting a register is re-indexing its list;
every other operation is one bitwise operation per plane over all lanes.

Lanes of different moduli of one width share a pass: each modulus owns a
contiguous segment of lanes, and each of its constants is a list of
planes too, holding the segment's lanes wherever the constant has a 1
bit. Selecting a constant is then a masking of planes, never a branch on
a modulus.

Where a rule applies to some lanes only, it is a mask of lanes. Every
seam check of ``pipeline.mulmod`` is one too, and all of them feed one
mask of flagged lanes: a lane that breaks any check is flagged, not
raised on, and the caller re-runs it through the scalar kernel to learn
the reason. Nothing here computes an expected residue: the caller checks
the outputs, packed by ``unslice``, against the oracle. Nothing here
splits a batch either: its masks and outputs cover every segment, and
the caller maps a lane to its modulus by the segment offsets.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, compress
from operator import or_
from typing import NamedTuple, Sequence

from .bitcore import top_up
from .mainloop import predict
from .modparams import ModulusParams
from .oracle import field_bytes
from .shrink import NORMAL_CYCLE_CAP, shrink_rules
from .squeeze import squeeze_rules

__all__ = ["SlicedRun", "run_moduli", "unslice"]

# The delta swaps of an 8x8 bit-matrix transpose of a 64-bit word, as
# (shift, mask) pairs (Hacker's Delight, 7-3).
_DELTA_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


class SlicedRun(NamedTuple):
    """What a batch's lanes did, as lane masks and per-lane outputs.

    ``flagged`` holds the lanes that broke any seam or rule check of
    ``pipeline.mulmod``, those on which ``mulmod_checked`` raises.
    ``cycles[c]`` holds the lanes whose shrink fired c rules, and
    ``rules[r - 1]`` those whose squeeze fired rule r; on a flagged lane
    they mean nothing. ``p`` and ``q`` are the outputs in the unshifted
    domain, k+1 bits per lane, packed by ``unslice``. Lane ``A*R + B`` of
    a modulus's segment, in every mask and output, is its instance (A, B).
    """

    flagged: int
    cycles: tuple[int, ...]
    rules: tuple[int, ...]
    p: int
    q: int


def _repeat(pattern: int, period: int, lanes: int) -> int:
    """``pattern`` (``period`` bits wide) repeated across ``lanes`` lanes."""
    width = period
    while width < lanes:
        pattern |= pattern << width
        width <<= 1
    return pattern & ((1 << lanes) - 1)


def _alternating(run: int, lanes: int) -> int:
    """Runs of ``run`` clear lanes and ``run`` set lanes, across ``lanes``."""
    return _repeat(((1 << run) - 1) << run, 2 * run, lanes)


def _operand_planes(
    batch: Sequence[ModulusParams], offsets: list[int]
) -> tuple[list[int], list[int]]:
    """Planes of A (k bits) and of the shifted multiplicand (n bits), each
    modulus's lanes from its offset on."""
    k, shift = batch[0].k, batch[0].shift
    a, b = [], []
    for params, offset in zip(batch, offsets):
        R = params.modulus
        lanes = R * R
        # A stays put for R lanes at a time, so its bit i alternates in runs
        # of R * 2**i lanes; B counts 0..R-1 within each of those runs.
        a_m = [_alternating(R << i, lanes) for i in range(k)]
        b_m = [_repeat(_alternating(1 << j, R), R, lanes) for j in range(k)]
        a.append([plane << offset for plane in a_m] if offset else a_m)
        b.append([plane << offset for plane in b_m] if offset else b_m)
    a = [reduce(or_, planes) for planes in zip(*a)]
    b = [reduce(or_, planes) for planes in zip(*b)]
    return a, [0] * shift + b


def _constant_planes(values: Sequence[int], segments: list[int], width: int) -> list[int]:
    """Planes of a constant per modulus: plane j holds the lanes of every
    segment whose modulus's constant has bit j set (bits from ``width`` up
    are cut off, as a register of that width would cut them).

    A plane of every lane is -1, all ones in two's complement: it means
    the same in any bitwise operation, and ``_mux`` tells it apart at no
    cost and skips its masking. In a batch of one modulus every plane is
    0 or -1.
    """
    planes = []
    for j in range(width):
        has = [value >> j & 1 for value in values]
        planes.append(-1 if all(has) else reduce(or_, compress(segments, has), 0))
    return planes


def _csa(x: list[int], y: list[int], z: list[int]) -> tuple[list[int], list[int], int]:
    """Carry-save addition of three registers of equal width.

    Returns the sum and the carry planes, the carry shifted up one plane
    and cut to the width, and the carry bit that fell off the top.
    """
    s = [xj ^ yj ^ zj for xj, yj, zj in zip(x, y, z)]
    c = [(xj & yj) | (zj & (xj | yj)) for xj, yj, zj in zip(x, y, z)]
    return s, [0] + c[:-1], c[-1]


def _select(mask: int, new: list[int], old: list[int]) -> list[int]:
    """``new`` on the lanes in ``mask``, ``old`` elsewhere."""
    return [o ^ ((o ^ m) & mask) for m, o in zip(new, old)]


def _mux(choices: tuple[tuple[int, list[int]], ...], width: int) -> list[int]:
    """The planes of a register holding, for each disjoint (mask, constant)
    choice, the constant (given as planes) on the lanes of mask, and 0 on
    every other lane."""
    planes = [0] * width
    for mask, constant in choices:
        for j, plane in enumerate(constant):
            if plane:
                planes[j] |= mask if plane == -1 else mask & plane
    return planes


def _below(planes: list[int], bound: list[int], ones: int) -> int:
    """Lanes whose register is below their ``bound`` (given as planes): a
    bit-serial comparator scanning from the top bit down."""
    below, equal = 0, ones
    for j in range(len(planes) - 1, -1, -1):
        x, b = planes[j], bound[j]
        below |= equal & b & ~x
        equal &= ~(x ^ b)
    return below


def _low_bits(p: list[int], q: list[int], shift: int) -> int:
    """Lanes with a set bit below position ``shift`` in either register."""
    low = 0
    for j in range(shift):
        low |= p[j] | q[j]
    return low


# One entry: the p and q outputs of a batch are un-sliced in turn, and a
# sweep's batches of one width need only a few powers of two of words.
@lru_cache(maxsize=1)
def _swap_masks(words: int) -> tuple[tuple[int, int], ...]:
    """``_DELTA_SWAPS`` with each mask repeated across ``words`` words."""
    return tuple(
        (shift, int.from_bytes(mask.to_bytes(8, "little") * words, "little"))
        for shift, mask in _DELTA_SWAPS
    )


def _transpose8(x: int, words: int) -> int:
    """Each of the ``words`` 64-bit words of ``x`` (least significant
    first) transposed as an 8x8 bit matrix: bit 8r + c moves to 8c + r,
    so byte r of a word becomes bit r of each of its bytes. Its own
    inverse.

    Every word is swapped at once: a mask repeated once per word keeps
    each swap's shifted bits inside their word. The masks span the next
    power of two of words; ``x`` is not negative, so masking it cuts them
    to its own words.
    """
    for shift, mask in _swap_masks(1 << (words - 1).bit_length()):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x


def unslice(planes: Sequence[int], lanes: int) -> int:
    """The lanes' values packed into one int: field i, of
    ``oracle.field_bytes(len(planes))`` bytes, least significant byte
    first, holds lane i, whose bit j is bit i of ``planes[j]``.

    Each group of eight planes becomes one byte per lane by a bit-matrix
    transpose: the planes' bytes are interleaved, byte m of plane j going
    to byte 8m + j, so that each 64-bit word holds eight lanes of the
    eight planes, and ``_transpose8`` turns every word into those lanes'
    bytes. The groups are interleaved into the fields, byte g of each
    from group g. A plane that is negative or has a bit at or above
    ``lanes`` raises ``ValueError``.
    """
    for j, plane in enumerate(planes):
        if plane < 0 or plane.bit_length() > lanes:
            raise ValueError(f"plane {j} is not a mask of {lanes} lanes")
    width = field_bytes(len(planes))
    words = -(-lanes // 8)
    fields = bytearray(width * 8 * words)
    for group in range(0, len(planes), 8):
        buf = bytearray(8 * words)
        for j, plane in enumerate(planes[group : group + 8]):
            buf[j::8] = plane.to_bytes(words, "little")
        packed = _transpose8(int.from_bytes(buf, "little"), words)
        if width == 1:
            return packed
        fields[group // 8 :: width] = packed.to_bytes(8 * words, "little")
    return int.from_bytes(fields, "little")


def _loop(a: list[int], b: list[int], rx: list[list[int]]) -> tuple[list[int], list[int]]:
    """The main loop, one plane of A at a time from the top: predict the
    overflow count from seven top bits (``mainloop.predict`` on planes),
    double, add the partial product and add the count's constant of
    ``rx`` (the planes of ``rx[1..3]``), on registers one plane wider than b."""
    p = q = [0] * (len(b) + 1)
    for ai in reversed(a):
        z = [ai & bj for bj in b] + [0]
        f0, f1 = predict(p[-1], p[-2], p[-3], q[-1], q[-2], q[-3], z[-2])
        ry = _mux(((f0 & ~f1, rx[0]), (f1 & ~f0, rx[1]), (f0 & f1, rx[2])), len(z))
        s, c, _ = _csa([0] + p[:-1], [0] + q[:-1], z)
        p, q, _ = _csa(s, c, ry)
    return p, q


def _shrink(
    p: list[int], q: list[int], rx1: list[int], rn: list[int], ones: int
) -> tuple[int, list[int], list[int], list[int]]:
    """Shrink: ``(flagged, cycles, p, q)``. Each cycle fires one rule of
    ``shrink_rules`` on the lanes not yet in the exit shape; ``cycles[c]``
    holds the lanes that fired c rules. ``flagged`` holds the lanes whose
    adder dropped a bit outside rule 1, and those still firing in cycle
    ``NORMAL_CYCLE_CAP + 1``, on which ``shrink.run_shrink`` raises.

    The rules read the bits a top-up of the two top positions would give,
    (p|q, p&q), and no top-up is written: the adder's sum and majority are
    symmetric in p and q, so a firing lane gets the same planes either way,
    and a lane that fires no more differs only in how bit n-1 is split,
    which ``_squeeze`` reads as p&q and tops up before reading it alone
    (``_low_bits`` reads only bits below ``shift`` <= n-3). Rule 1 needs
    no flag: it always drops the doubled span its constant pays for (the
    proofs are in ``shrink.shrink_cycle``'s docstring).
    """
    flagged, cycles, cycling = 0, [0] * (NORMAL_CYCLE_CAP + 1), ones
    for cycle in range(NORMAL_CYCLE_CAP + 1):
        pn, qn = p[-1] | q[-1], p[-1] & q[-1]
        (r1, r2, r3, r4), clear_p, clear_q = shrink_rules(pn, qn, p[-2] & q[-2])
        fire = r1 | r2 | r3 | r4
        cycles[cycle] = cycling & ~fire
        cycling = fire
        if not fire:
            break
        s, c, dropped = _csa(p, q, _mux(((r1 | r2, rx1), (r3 | r4, rn)), len(p)))
        flagged |= (r2 | r3 | r4) & dropped
        s[-1] &= ~clear_p
        c[-1] &= ~clear_q
        p = _select(fire, s, p)
        q = _select(fire, c, q)
    return flagged | cycling, cycles, p, q


def _squeeze(
    p: list[int], q: list[int], rn: list[int], rm: list[int], r_bit: int, ones: int
) -> tuple[int, tuple[int, ...], list[int], list[int]]:
    """Squeeze: ``(flagged, rules, p, q)``, where ``flagged`` holds the
    lanes that enter without shrink's exit shape. A top-up below the top
    bit, one of the six rules of ``squeeze_rules`` (``rules[r - 1]`` holds
    rule r's lanes; the ``r_bit`` plane picks rules 5/6 on its lanes and
    3/4 on the others), and one carry-save addition on rules 2 and 3."""
    p, q = p[:], q[:]
    flagged = p[-1] | q[-1] | (p[-2] & q[-2])
    for j in (-3, -2):
        p[j], q[j] = top_up(p[j], q[j], -1)
    rules, (p[-2], p[-3], q[-3]) = squeeze_rules(p[-2], p[-3], q[-3], r_bit, ones)
    added = rules[1] | rules[2]
    s, c, _ = _csa(p, q, _mux(((rules[1], rn), (rules[2], rm)), len(p)))
    return flagged, rules, _select(added, s, p), _select(added, c, q)


def run_moduli(batch: Sequence[ModulusParams]) -> SlicedRun:
    """Run every (A, B) pair of each modulus in ``batch`` through the
    kernel at once; one ``SlicedRun`` for the batch.

    The moduli must share one width (k, n). Each owns the segment of
    lanes that starts after the R * R lanes of those before it. The stages
    are those of ``pipeline.mulmod``; each of its seam and rule checks
    adds the lanes that break it to ``flagged``.
    """
    n, k, shift = batch[0].n, batch[0].k, batch[0].shift
    if any((params.n, params.k) != (n, k) for params in batch):
        raise ValueError("a batch must share one width (k, n)")
    sizes = [params.modulus**2 for params in batch]
    *offsets, lanes = accumulate(sizes, initial=0)
    ones = (1 << lanes) - 1
    segments = [((1 << size) - 1) << offset for size, offset in zip(sizes, offsets)]

    def planes(values: list[int]) -> list[int]:
        return _constant_planes(values, segments, n + 1)

    rx = [planes([p.rx[f] for p in batch]) for f in (1, 2, 3)]
    rn = planes([p.rn for p in batch])
    rm = planes([p.rm for p in batch])
    bound = planes([p.modulus_shifted for p in batch])
    r_bit = reduce(or_, (seg for p, seg in zip(batch, segments) if p.r_bit), 0)

    p, q = _loop(*_operand_planes(batch, offsets), rx)
    flagged = _low_bits(p, q, shift)
    shrunk, cycles, p, q = _shrink(p, q, rx[0], rn, ones)
    flagged |= shrunk | _low_bits(p, q, shift)
    squeezed, rules, p, q = _squeeze(p, q, rn, rm, r_bit, ones)
    flagged |= squeezed | (ones & ~(_below(p, bound, ones) & _below(q, bound, ones)))
    flagged |= _low_bits(p, q, shift)

    return SlicedRun(
        flagged=flagged,
        cycles=tuple(cycles),
        rules=rules,
        p=unslice(p[shift:], lanes),
        q=unslice(q[shift:], lanes),
    )
