"""Modulus validation, precomputed reduction constants, and shift normalization.

The pipeline proper assumes the modulus occupies the full working width,
i.e. its top bit sits at position n-1. A modulus of bit length k < n is
handled by scaling the multiplicand, the modulus, and every precomputed
constant by 2**(n-k) on the way in and dividing the outputs by the same
factor on the way out. Constants are reduced first (against the original
modulus) and scaled second; the two orders are equivalent and the tests
check that they commute.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import ContractViolation, InvariantViolation

__all__ = [
    "MAX_WIDTH",
    "ModulusParams",
    "check_int",
    "int_text",
    "check_low_bits",
    "precompute",
    "shift_left_operand",
    "shift_right_result",
]

# The widest working width ``precompute`` accepts, 2**13: the widest power
# of two at which every value a run prints fits the interpreter's default
# limit of 4,300 decimal digits (the worksheet prints a step's discarded
# amount, up to 3 * 2**(n+1), in decimal; at 2**14 that is 4,933 digits).
# It also bounds memory: a traced run keeps a record of several n-bit ints
# per step, so it grows with n**2. Measured on 2 vCPUs with full-width
# moduli, one untraced mulmod takes 17 ms at n = 2**13 and 565 ms at
# 2**16, and a traced one peaks at 59 MiB of RSS at 2**13, 180 MiB at
# 2**14 and would pass 600 MiB at 2**15; a width of 2**40 would not fit.
MAX_WIDTH = 1 << 13


class ModulusParams(NamedTuple):
    """Everything derived from (modulus, working width) that a run needs.

    Immutable, since sweeps share one constant set across every instance
    of a modulus; build a variant with ``params._replace(field=...)``.

    Attributes:
        n: working width in bits; registers in the pipeline hold n+1 bits.
        k: bit length of the modulus, so 2**(k-1) <= modulus < 2**k.
        shift: n - k, the normalization scale exponent.
        modulus: the original reduction modulus R.
        mask: 2**(n+1) - 1, the mask of the (n+1)-bit registers.
        rn: (2**k mod R) * 2**shift, the one-span reduction constant.
        rm: ((3 * 2**k / 4) mod R) * 2**shift, the three-quarter-span constant.
        rx: four constants ((2**k * 2f) mod R) * 2**shift for f = 0..3,
            indexed by the loop's predicted overflow count.
        r_bit: the bit just below the modulus top bit (bit k-2 of R, equal
            to bit n-2 of R * 2**shift); selects between the two final
            reduction rule families.
    """

    n: int
    k: int
    shift: int
    modulus: int
    mask: int
    rn: int
    rm: int
    rx: tuple[int, int, int, int]
    r_bit: int


# precompute builds its record from one tuple through tuple.__new__,
# called from C: ModulusParams(...) runs a Python __new__, which takes
# about twice as long, and a random sweep builds one set per instance.
# It gives up the field-count check (the tests hold the record to
# ModulusParams's type and length).
_make_params = functools.partial(tuple.__new__, ModulusParams)


def check_int(name: str, value: object) -> None:
    """Reject, by name, a value that is not an int.

    ``bool`` is rejected although it subclasses int, and so are integer
    types that do not subclass it (numpy's among them): convert with int().
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ContractViolation(
            f"{name} must be an int (got {type(value).__name__} {value!r})"
        )


def int_text(value: int) -> str:
    """An int for an error message: decimal, or hex where its decimal text
    would pass the interpreter's conversion limit (an input may be of any
    size, and its message must not raise in its place)."""
    try:
        return str(value)
    except ValueError:
        return hex(value)


def check_low_bits(p: int, q: int, params: ModulusParams, stage: str) -> None:
    """Raise unless the low ``shift`` bits of both registers are clear.

    Every stage promises to keep those positions clear, so that the final
    division by 2**shift is exact; a set bit there is an internal
    invariant breach rather than a user error.
    """
    if (p | q) & ((1 << params.shift) - 1):
        raise InvariantViolation(
            f"nonzero low bits after {stage} "
            f"(p={p:#x}, q={q:#x}, shift={params.shift})"
        )


def precompute(R: int, n: int) -> ModulusParams:
    """Validate (R, n) and build the precomputed constant set.

    The constants are ordinary arbitrary-precision reductions of small
    multiples of 2**k, computed against the original modulus and then
    scaled by 2**(n-k). They are deliberately outside the carry-save
    computational model: this runs once per modulus, not per step.
    """
    check_int("R", R)
    check_int("n", n)
    if n <= 2:
        raise ContractViolation(f"n > 2 violated (n={int_text(n)})")
    if n > MAX_WIDTH:
        raise ContractViolation(f"n <= {MAX_WIDTH} violated (n={int_text(n)})")
    if R < 4:
        raise ContractViolation(f"R >= 4 violated (R={int_text(R)})")
    k = R.bit_length()
    if k > n:
        raise ContractViolation(
            f"bit-length(R) <= n violated (bit-length {k} vs n={n})"
        )
    shift = n - k
    beta_k = 1 << k
    rn = (beta_k % R) << shift
    rm = ((3 * beta_k // 4) % R) << shift
    rx = (
        0,
        ((2 * beta_k) % R) << shift,
        ((4 * beta_k) % R) << shift,
        ((6 * beta_k) % R) << shift,
    )
    r_bit = (R >> (k - 2)) & 1
    # In field order.
    return _make_params((n, k, shift, R, (2 << n) - 1, rn, rm, rx, r_bit))


def shift_left_operand(B: int, params: ModulusParams) -> int:
    """Scale a multiplicand into the normalized domain as an n-bit register."""
    check_int("B", B)
    if B < 0:
        raise ContractViolation(f"B >= 0 violated (B={int_text(B)})")
    if B >= params.modulus:
        raise ContractViolation(f"B < R violated (B={int_text(B)}, R={params.modulus})")
    return B << params.shift


def shift_right_result(p: int, q: int, params: ModulusParams) -> tuple[int, int]:
    """Scale the squeeze output pair back out of the normalized domain.

    The division by 2**shift must be exact, which check_low_bits enforces.
    """
    check_low_bits(p, q, params, "squeeze")
    return p >> params.shift, q >> params.shift
