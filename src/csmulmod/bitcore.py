"""The carry-save primitives on plain-int registers, and a checked bit vector.

The kernel keeps each register as a non-negative Python int. A register's
width lives in the mask ``(1 << width) - 1`` (``ModulusParams.mask``,
computed once per modulus), which the caller passes to the one operation
that can grow a value, the carry-save adder. Its truncation is the only
lossy step (it can erase the single documented top majority bit). Top-up
takes a mask too: the positions it treats.

``BitVec`` is a separate, validated (width, value) type for code outside
the kernel: combining unequal widths raises, and widening and truncation
are explicit calls.
"""

from __future__ import annotations

from .errors import WidthError

__all__ = [
    "BitVec",
    "csa",
    "maj2of3",
    "top_up",
]


class BitVec:
    """An immutable register of ``width`` bits; bit 0 is least significant.

    The stored value always satisfies ``0 <= value < 2**width``. Treat
    instances as immutable: every operation returns a new vector.
    """

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        self.width = width
        self.value = value

    def bit(self, i: int) -> int:
        """Bit at position ``i`` as an int in {0, 1}."""
        if i < 0 or i >= self.width:
            raise ValueError(f"bit index {i} out of range for width {self.width}")
        return (self.value >> i) & 1

    def zext(self, width: int) -> "BitVec":
        """Zero-extend to ``width`` bits (lossless)."""
        if width < self.width:
            raise ValueError(f"cannot zero-extend width {self.width} down to {width}")
        return BitVec(width, self.value)

    def trunc(self, width: int) -> "BitVec":
        """Keep the low ``width`` bits, discarding the rest."""
        if width > self.width:
            raise ValueError(f"cannot truncate width {self.width} up to {width}")
        return BitVec(width, self.value & ((1 << width) - 1))

    def shl(self, count: int) -> "BitVec":
        """Shift left by ``count``, widening so no bit is lost."""
        if count < 0:
            raise ValueError("shift count must be non-negative")
        return BitVec(self.width + count, self.value << count)

    def set_bit(self, i: int) -> "BitVec":
        if i < 0 or i >= self.width:
            raise ValueError(f"bit index {i} out of range for width {self.width}")
        return BitVec(self.width, self.value | (1 << i))

    def clear_bit(self, i: int) -> "BitVec":
        if i < 0 or i >= self.width:
            raise ValueError(f"bit index {i} out of range for width {self.width}")
        return BitVec(self.width, self.value & ~(1 << i))

    def _check_width(self, other: "BitVec") -> None:
        if self.width != other.width:
            raise WidthError(
                f"width mismatch: {self.width} vs {other.width}"
            )

    def __xor__(self, other: "BitVec") -> "BitVec":
        self._check_width(other)
        return BitVec(self.width, self.value ^ other.value)

    def __and__(self, other: "BitVec") -> "BitVec":
        self._check_width(other)
        return BitVec(self.width, self.value & other.value)

    def __or__(self, other: "BitVec") -> "BitVec":
        self._check_width(other)
        return BitVec(self.width, self.value | other.value)

    def __invert__(self) -> "BitVec":
        return BitVec(self.width, self.value ^ ((1 << self.width) - 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVec):
            return NotImplemented
        self._check_width(other)
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    def __repr__(self) -> str:
        return f"BitVec({self.width}, 0b{self.value:0{self.width}b})"


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
