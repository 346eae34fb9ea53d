"""The interleaved multiplication loop over the bits of the multiplier.

Each of the k iterations doubles the accumulator pair, adds the next
partial product, and adds a reduction constant, all inside (n+1)-bit
registers. Bits that fall off the top are never computed; instead a
seven-bit predictor works out, before the additions run, how many units
of 2**(n+1) the step is about to discard, and the matching precomputed
constant keeps the pair in the right residue class.
"""

from __future__ import annotations

import functools
from itertools import product
from operator import or_
from typing import NamedTuple

from .bitcore import maj2of3
from .errors import ContractViolation
from .modparams import ModulusParams, check_int, int_text

__all__ = [
    "Accumulator",
    "StepTrace",
    "lcu",
    "predict",
    "run_loop",
]


class Accumulator(NamedTuple):
    """The running value as a carry-save pair of (n+1)-bit registers.

    The residue class of p + q modulo the shifted modulus is the meaning;
    the split between the two registers is free to change at any time.
    ``n`` is the working width, so bit n is each register's top bit.
    Shrink and squeeze read it by position, so an untraced run hands them
    the plain tuple ``(p, q, n)`` instead.
    """

    p: int
    q: int
    n: int


class StepTrace(NamedTuple):
    """Record of one loop iteration, for worksheets and invariant checks.

    ``discarded`` is the integer amount the step's truncations threw away:
    2*(p_in + q_in) + a_i * b + ry - (p_out + q_out). It always equals
    f * 2**(n+1).

    The fields are in sorted order, the order of the keys of
    ``json.dumps(..., sort_keys=True)``, so ``mulmod --json`` formats a
    record as the tuple it is. Read them by name: the position of a field
    is not its step order. ``run_loop`` builds a record with
    ``tuple.__new__``, which does not check the field count, so its one
    call lists every field in this order.
    """

    a_i: int
    c: int
    discarded: int
    f: int
    i: int
    p_in: int
    p_out: int
    q_in: int
    q_out: int
    ry: int
    s: int


def predict(
    pn: int, pn1: int, pn2: int, qn: int, qn1: int, qn2: int, b_top: int
) -> tuple[int, int]:
    """Predict the overflow count of one loop step from seven register bits.

    Inputs are the top three bits of each accumulator register, most
    significant first, plus the top bit of the incoming partial product
    (the multiplier bit ANDed with bit n-1 of the shifted multiplicand).
    The result ``(f0, f1)``, low bit first, counts the units of 2**(n+1)
    that the step's truncations will drop; it does not depend on which
    reduction constant the step adds, which is what lets the constant be
    selected before the additions run. Written only with ``&``, ``|`` and
    ``^``, so the bits may be 0/1 ints or lane planes of the bit-sliced
    kernel alike.
    """
    # Intermediate bits of the untruncated additions, derived positionally:
    # s4/c4 sit at the register edge, s5/c5 one above it, and the first
    # majority is the carry into the edge.
    s4 = pn1 ^ qn1
    s5 = pn ^ qn
    c4 = pn1 & qn1
    q5 = s4 & maj2of3(pn2, qn2, b_top)
    return q5 ^ s5 ^ c4, (pn & qn) ^ maj2of3(s5, c4, q5)


def lcu(
    p_top3: tuple[int, int, int],
    q_top3: tuple[int, int, int],
    b_top: int,
) -> int:
    """The count ``predict`` gives for the top three bits of each register
    and the partial product's top bit, as one int; it is always below 4."""
    f0, f1 = predict(*p_top3, *q_top3, b_top)
    return (f1 << 1) | f0


# The predicted overflow count for every seven-bit predictor input, as
# _F_TABLE[b_top][x3][a3], where x3 and a3 are the top three bits of p ^ q
# and p & q read as binary numbers. ``predict`` reads each position only
# through p ^ q and p & q, so every split of a pair gives the same count,
# and the table is built at the split p = x | a, q = a. The loop computes
# p ^ q and p & q anyway; it picks the b_top half once per call and then
# indexes it with one shift of each.
_F_TABLE = tuple(
    tuple(
        tuple(
            lcu(tuple(map(or_, x3, a3)), a3, b_top)
            for a3 in product((0, 1), repeat=3)
        )
        for x3 in product((0, 1), repeat=3)
    )
    for b_top in (0, 1)
)


# An untraced loop of k >= REVERSED_FROM steps runs in a bit-reversed
# frame: register bit j is held at position n - j, so doubling is a right
# shift, which drops the top bit as the (n+1)-bit register does, and no
# step masks. _REV8 maps each byte to its bits in reverse order (built by
# doubling: the reversal of an (m+1)-bit value is twice that of its low m
# bits, plus its top bit), so one bytes.translate reverses every bit of a
# little-endian byte string read back big-endian. The top three register
# bits are then the low three, most significant lowest, and _F_REVERSED
# is _F_TABLE with both of those indices reversed.
_rev = [0]
for _ in range(8):
    _rev = [t << 1 for t in _rev] + [(t << 1) | 1 for t in _rev]
_REV8 = bytes(_rev)
_rev = [t >> 5 for t in _rev[:8]]
_F_REVERSED = tuple(
    tuple(tuple(half[_rev[x]][_rev[a]] for a in range(8)) for x in range(8))
    for half in _F_TABLE
)
del _rev

# The fewest steps (k, the modulus length) for which an untraced call
# takes the reversed frame, picked by measurement. Its entry and exit
# conversions cost ~1.5 us a call and more at wide n; each step saves two
# masks. Full-width calls (k = n) lost up to n = 28 and won from 29; with
# k < n, k >= 29 won at every n measured from 29 to 8192, and k <= 8 lost
# at every n (2 vCPU, CPython 3.11.7; BENCH_mainloop.json, section
# reversed_frame). The step count, not the width, decides, since the
# saving is per step: `mulmod --n 64 --mod 5` runs three steps.
REVERSED_FROM = 29


# The traced loop builds each record from one tuple of its eleven fields
# through tuple.__new__, called from C, so a step pays no Python frame:
# StepTrace(...) runs a Python __new__ and StepTrace._make a Python
# classmethod. What it gives up is _make's field-count check (the tests
# hold every record to StepTrace's type and length).
_make_step = functools.partial(tuple.__new__, StepTrace)
# The same for the pair each call returns: a (p, q, n) tuple.
_make_acc = functools.partial(tuple.__new__, Accumulator)


def run_loop(
    A: int,
    B_shifted: int,
    params: ModulusParams,
    trace: bool = False,
) -> tuple[Accumulator, list[StepTrace] | None]:
    """Iterate over the top k bits of A, most significant first.

    The iteration count is k, the original modulus length, regardless of
    leading zeros in A; starting from the zero pair this realizes the
    doubling expansion of A * B. On exit p + q is congruent to
    A * B_shifted modulo the shifted modulus.

    Each step doubles the pair, adds the partial product (``B_shifted``,
    the n-bit register from shift_left_operand, or zero) in one carry-save
    addition masked to n+1 bits, then adds the reduction constant selected
    by the overflow count that ``_F_TABLE`` holds for the top three bits
    of p ^ q and of p & q and the partial product's top bit. A zero
    constant makes the second addition a half adder; the branch reads the
    constant's value, not the count that chose it. The partial product's
    carry ANDs p ^ q with ``B_shifted >> 1`` before one shift by two: the
    bit that right shift drops would meet bit 0 of the doubled p ^ q,
    which is always clear, so the carry is exact. A record of every step
    is built only when ``trace`` is set, through ``_make_step`` with a
    running step index; its ``discarded`` adds ``B_shifted`` or nothing,
    as the bit says, instead of multiplying by the bit.

    The input checks run first. An untraced call of at least
    ``REVERSED_FROM`` steps then runs the same steps in the bit-reversed
    frame (``_run_reversed``), where no step masks; every traced call, and
    an untraced one of fewer steps, runs the shared body here. Both end on
    the same pair and return it as an ``Accumulator``.
    """
    check_int("A", A)
    if A < 0:
        raise ContractViolation(f"A >= 0 violated (A={int_text(A)})")
    if A >= params.modulus:
        raise ContractViolation(f"A < R violated (A={int_text(A)}, R={params.modulus})")
    n = params.n
    k = params.k
    mask = params.mask
    rx = params.rx
    if not trace and k >= REVERSED_FROM:
        return _run_reversed(A, B_shifted, n, k, mask, rx), None
    top = n - 2
    f_zero = _F_TABLE[0]
    f_one = _F_TABLE[(B_shifted >> (n - 1)) & 1]
    b_half = B_shifted >> 1
    p = q = 0
    i = k
    traces: list[StepTrace] | None = [] if trace else None
    # A < R < 2**k, so the string has exactly k digits, most significant
    # first. Both carry-save additions are written inline (the tests hold
    # them to ``csa``). Doubling commutes with ``^`` and ``&``, so the
    # doubled registers' sum and majority bits come from one shift of
    # x = p ^ q and a = p & q, which also index the table; the majority's
    # B_shifted & (x << 1) term is b_half & x shifted once more, since
    # bit 0 of x << 1 is clear. A clear bit adds a zero partial product:
    # the first addition is then a half adder and the table is the
    # b_top = 0 half. A zero constant makes the second addition a half
    # adder too.
    # Every operation below is bitwise or a left shift, and neither moves
    # a bit downwards, so the bits that s and c carry above bit n never
    # reach bits 0..n: masking only the two new registers gives the same
    # bits as masking every intermediate, and keeps x >> top and a >> top
    # below 8. The one right shift, b_half, is taken once, before the
    # loop, of the n-bit B_shifted, which has no bits above n to bring
    # down.
    for bit in format(A, f"0{k}b"):
        x = p ^ q
        a = p & q
        if bit == "1":
            f = f_one[x >> top][a >> top]
            s = (x << 1) ^ B_shifted
            c = (a | (b_half & x)) << 2
        else:
            f = f_zero[x >> top][a >> top]
            s = x << 1
            c = a << 2
        ry = rx[f]
        if ry:
            u = s ^ c
            p2 = (u ^ ry) & mask
            q2 = (((s & c) | (ry & u)) << 1) & mask
        else:
            p2 = (s ^ c) & mask
            q2 = ((s & c) << 1) & mask
        if traces is not None:
            # In field order; i counts down from k - 1. A clear bit's
            # partial product is zero.
            i -= 1
            if bit == "1":
                a_i, ab = 1, B_shifted
            else:
                a_i = ab = 0
            traces.append(
                _make_step((
                    a_i, c & mask, 2 * (p + q) + ab + ry - (p2 + q2),
                    f, i, p, p2, q, q2, ry, s & mask,
                ))
            )
        p, q = p2, q2
    return _make_acc((p, q, n)), traces


def _run_reversed(
    A: int, B_shifted: int, n: int, k: int, mask: int, rx: tuple[int, ...]
) -> Accumulator:
    """The untraced loop of ``run_loop`` in the bit-reversed frame.

    ``B_shifted`` and the four constants are masked to n+1 bits (the
    shared body's masks drop their higher bits too) and reversed together:
    packed into one int, n+1 bits apart, and reversed as a whole by
    ``_reversed``, so the values come back in reverse order, each one
    reversed within its own n+1 bits. The final pair goes back the same
    way.
    """
    w = n + 1
    r0, r1, r2, r3 = rx
    packed = (
        ((((B_shifted & mask) << w | r3 & mask) << w | r2 & mask) << w | r1 & mask)
        << w | r0 & mask
    )
    v = _reversed(packed, 5 * w)
    # v now holds the reversals of rx[0], rx[1], rx[2], rx[3] and B_shifted,
    # from the top down.
    z = v & mask
    v >>= w
    rx = (v >> 3 * w, (v >> 2 * w) & mask, (v >> w) & mask, v & mask)
    f_zero = _F_REVERSED[0]
    f_one = _F_REVERSED[(B_shifted >> (n - 1)) & 1]
    z_half = z << 1
    p = q = 0
    # The shared body's step with each left shift turned into a right
    # shift: every operation keeps a value within n+1 bits, so the two
    # new registers need no mask. z_half is b_half of the shared body,
    # B_shifted >> 1, in this frame: the bit that z << 1 moves above bit n
    # meets x's clear bits there.
    for bit in format(A, f"0{k}b"):
        x = p ^ q
        a = p & q
        if bit == "1":
            f = f_one[x & 7][a & 7]
            s = (x >> 1) ^ z
            c = (a | (z_half & x)) >> 2
        else:
            f = f_zero[x & 7][a & 7]
            s = x >> 1
            c = a >> 2
        ry = rx[f]
        if ry:
            u = s ^ c
            p = u ^ ry
            q = ((s & c) | (ry & u)) >> 1
        else:
            p = s ^ c
            q = (s & c) >> 1
    v = _reversed((q << w) | p, 2 * w)
    return _make_acc((v >> w, v & mask, n))


def _reversed(v: int, bits: int) -> int:
    """``v``, which fits in ``bits`` bits, with those bits in reverse order.

    ``v`` is turned into little-endian bytes, translated through _REV8 and
    read back big-endian, which reverses every bit of the byte string; the
    shift drops the low bits that the byte string's padding above ``bits``
    became.
    """
    size = (bits + 7) >> 3
    return int.from_bytes(v.to_bytes(size, "little").translate(_REV8), "big") >> (
        8 * size - bits
    )
