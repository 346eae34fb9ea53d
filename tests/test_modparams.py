import pytest

from csmulmod import (
    MAX_WIDTH,
    ContractViolation,
    InvariantViolation,
    precompute,
    shift_left_operand,
    shift_right_result,
)


class TestPrecompute:
    def test_full_width_modulus(self):
        p = precompute(173, 8)
        # oracle: direct arbitrary-precision reductions against R=173
        assert p.k == 8 and p.shift == 0
        assert p.rn == 256 % 173 == 83
        assert p.rm == 192 % 173 == 19
        assert p.rx == (0, 512 % 173, 1024 % 173, 1536 % 173) == (0, 166, 159, 152)
        assert p.r_bit == 173 // 64 - 2 == 0
        assert p.r_bit == (p.modulus << p.shift) >> (p.n - 2) & 1
        assert p.mask == 0b111111111

    def test_power_of_two_modulus(self):
        p = precompute(128, 8)
        assert p.rn == 0
        assert p.rx == (0, 0, 0, 0)
        assert p.r_bit == 0

    def test_scaled_constants(self):
        p = precompute(13, 6)
        assert p.k == 4 and p.shift == 2
        assert p.rx[1] == (32 % 13) * 4 == 24
        assert p.rn == (16 % 13) * 4
        assert p.rm == (12 % 13) * 4
        assert p.r_bit == 1  # 13 = 1101b, bit below the top bit
        assert p.r_bit == (p.modulus << p.shift) >> (p.n - 2) & 1

    def test_constant_set_is_immutable(self):
        # sweeps share one constant set across every instance of a modulus
        p = precompute(173, 8)
        with pytest.raises(AttributeError):
            p.rn = 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolation, match="n > 2"):
            precompute(173, 2)
        with pytest.raises(ContractViolation, match="R >= 4"):
            precompute(3, 8)
        with pytest.raises(ContractViolation, match="bit-length"):
            precompute(173, 7)
        # the width bound is checked before any constant is shifted
        assert precompute(173, MAX_WIDTH).shift == MAX_WIDTH - 8
        for n in (MAX_WIDTH + 1, 2**40, 10**20):
            with pytest.raises(ContractViolation, match=f"^n <= {MAX_WIDTH} violated"):
                precompute(173, n)

    def test_rejects_non_int_inputs_by_name(self):
        for bad in (173.0, True, "AD", None):
            with pytest.raises(ContractViolation, match="R must be an int"):
                precompute(bad, 8)
        for bad in (8.0, False, "8"):
            with pytest.raises(ContractViolation, match="n must be an int"):
                precompute(173, bad)

    def test_constants_reduced_and_congruent(self):
        # every stored constant is the scaled reduction of its defining
        # multiple of 2**k, checked against plain integer arithmetic
        for R in range(4, 1 << 10):
            k = R.bit_length()
            p = precompute(R, k)
            beta = 1 << k
            for value, definition in (
                (p.rn, beta),
                (p.rm, 3 * beta // 4),
                (p.rx[1], 2 * beta),
                (p.rx[2], 4 * beta),
                (p.rx[3], 6 * beta),
            ):
                assert value < R
                assert value % R == definition % R
            assert p.r_bit == (R >> (k - 2)) & 1

    def test_scaling_commutes(self):
        # reducing against the shifted modulus with the shifted span gives
        # the same constants as reduce-then-scale
        for R in (4, 5, 7, 13, 100, 173, 255):
            k = R.bit_length()
            for n in range(k, k + 5):
                p = precompute(R, n)
                rs = R << (n - k)
                beta_n = 1 << n
                assert p.rn == beta_n % rs
                assert p.rm == (3 * beta_n // 4) % rs
                assert p.rx == (
                    0,
                    (2 * beta_n) % rs,
                    (4 * beta_n) % rs,
                    (6 * beta_n) % rs,
                )
                assert p.r_bit == (rs >> (n - 2)) & 1


class TestShiftLeft:
    def test_scales_by_the_gap(self):
        p = precompute(13, 6)
        assert shift_left_operand(11, p) == 44

    def test_zero(self):
        assert shift_left_operand(0, precompute(13, 6)) == 0

    def test_identity_when_full_width(self):
        p = precompute(173, 8)
        assert shift_left_operand(121, p) == 121

    def test_rejects_operand_at_or_above_modulus(self):
        p = precompute(13, 6)
        with pytest.raises(ContractViolation, match="B < R"):
            shift_left_operand(13, p)
        with pytest.raises(ContractViolation, match="B >= 0"):
            shift_left_operand(-1, p)
        for bad in (3.0, True):
            with pytest.raises(ContractViolation, match="B must be an int"):
                shift_left_operand(bad, p)


class TestShiftRight:
    def test_exact_division(self):
        p = precompute(13, 6)
        assert shift_right_result(44, 0, p) == (11, 0)

    def test_identity_when_full_width(self):
        p = precompute(173, 8)
        assert shift_right_result(70, 114, p) == (70, 114)

    def test_inexact_division_is_a_breach(self):
        p = precompute(13, 6)
        with pytest.raises(InvariantViolation, match="low bits"):
            shift_right_result(1, 0, p)
        with pytest.raises(InvariantViolation, match="low bits"):
            shift_right_result(0, 2, p)
