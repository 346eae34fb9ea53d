"""The carry-save primitives on plain-int registers.

The kernel keeps each register as a non-negative Python int. A register's
width lives in the mask ``(1 << width) - 1`` (``ModulusParams.mask``,
computed once per modulus), which the caller passes to the one operation
that can grow a value, the carry-save adder. Its truncation is the only
lossy step (it can erase the single documented top majority bit). Top-up
takes a mask too: the positions it treats.
"""

from __future__ import annotations

__all__ = [
    "BitVec",
    "csa",
    "maj2of3",
    "top_up",
]


class BitVec:
    """A validated (width, value) register: ``0 <= value < 2**width``.

    Nothing in the package builds one. The class stays because the
    benchmark (``perfbench/tracing.py``) counts its instances by wrapping
    ``__init__``.
    """

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        self.width = width
        self.value = value


def maj2of3(x: int, y: int, z: int) -> int:
    """Bitwise two-out-of-three majority, the carry generator of a CSA.

    Symmetric in all three arguments: each output bit is 1 exactly when
    at least two of the corresponding input bits are 1. It sets no bit
    that none of its operands has, so it needs no mask.
    """
    return (x & y) | (z & (x | y))


def csa(x: int, y: int, z: int, mask: int) -> tuple[int, int]:
    """Carry-save addition of three registers into a sum/carry pair.

    ``mask`` is ``2**m - 1`` for registers of ``m`` bits, and the operands
    must fit in it. Returns ``(s, c)`` with ``s = x ^ y ^ z`` and ``c`` the
    majority shifted left one position then masked back to ``m`` bits. The
    masking can erase exactly one bit (the top majority bit), so

        x + y + z - (s + c) in {0, 2**m}

    and the loss, when it happens, is exactly ``2**m``.
    """
    return x ^ y ^ z, (maj2of3(x, y, z) << 1) & mask


def top_up(p: int, q: int, mask: int) -> tuple[int, int]:
    """Migrate set bits from ``q`` into ``p`` at the positions set in ``mask``.

    At each treated position i the pair (p_i, q_i) becomes
    (p_i OR q_i, p_i AND q_i): a lone 1 in q moves over to p, all other
    combinations stay put. The sum p + q never changes, and afterwards
    q_i = 1 implies p_i = 1 at every treated position.
    """
    return p | (q & mask), q & (p | ~mask)
