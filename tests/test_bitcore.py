import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csmulmod import BitVec, csa, maj2of3, top_up


@st.composite
def same_width(draw, count=2, max_width=64):
    """A register width and ``count`` register values that fit in it."""
    w = draw(st.integers(min_value=1, max_value=max_width))
    values = [draw(st.integers(min_value=0, max_value=(1 << w) - 1)) for _ in range(count)]
    return w, values


def bit(v, i):
    return (v >> i) & 1


class TestBitVec:
    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitVec(4, 16)
        with pytest.raises(ValueError):
            BitVec(4, -1)
        with pytest.raises(ValueError):
            BitVec(0, 0)
        assert BitVec(4, 15).value == 15


class TestMajority:
    def test_truth_table_example(self):
        assert maj2of3(0b110, 0b011, 0b101) == 0b111

    def test_matches_per_bit_vote(self):
        # independent per-bit oracle over every 3-bit combination
        for a, b, c in itertools.product(range(8), repeat=3):
            got = maj2of3(a, b, c)
            assert got < 8
            for i in range(3):
                votes = bit(a, i) + bit(b, i) + bit(c, i)
                assert bit(got, i) == (1 if votes >= 2 else 0)

    @given(same_width(count=2))
    def test_two_identical_votes_win(self, wv):
        _, (x, z) = wv
        assert maj2of3(x, x, z) == x

    @given(same_width(count=1))
    def test_single_vote_loses(self, wv):
        _, (z,) = wv
        assert maj2of3(0, 0, z) == 0

    @given(same_width(count=3))
    def test_commutative(self, wv):
        _, vals = wv
        expected = maj2of3(*vals)
        for perm in itertools.permutations(vals):
            assert maj2of3(*perm) == expected


class TestCsa:
    def test_carry_chain_collapses_to_one_step(self):
        s, c = csa(15, 1, 0, 0b11111)
        assert (s, c) == (14, 2)
        assert s + c == 16

    def test_top_bit_erasure(self):
        assert csa(8, 8, 0, 0b1111) == (0, 0)

    @given(same_width(count=1, max_width=16))
    def test_zero_operands_pass_through(self, wv):
        w, (z,) = wv
        assert csa(0, 0, z, (1 << w) - 1) == (z, 0)

    def test_loss_is_exactly_the_top_majority_bit(self):
        # brute force over every operand triple up to width six
        for m in range(1, 7):
            mask = (1 << m) - 1
            for x, y, z in itertools.product(range(1 << m), repeat=3):
                s, c = csa(x, y, z, mask)
                assert s <= mask and c <= mask
                votes = bit(x, m - 1) + bit(y, m - 1) + bit(z, m - 1)
                lost = (1 << m) if votes >= 2 else 0
                assert x + y + z - (s + c) == lost


class TestTopUp:
    def test_lone_bit_migrates(self):
        assert top_up(0, 1, 0b1) == (1, 0)

    def test_double_bit_fixed_point(self):
        assert top_up(1, 1, 0b1) == (1, 1)

    def test_two_position_example(self):
        p, q = top_up(0b1010, 0b0100, 0b1100)
        assert (p, q) == (0b1110, 0b0000)
        assert p + q == 0b1010 + 0b0100

    def test_all_bit_combinations_per_position(self):
        for pi, qi in itertools.product((0, 1), repeat=2):
            p, q = top_up(pi, qi, 0b1)
            assert p + q == pi + qi
            assert p == pi | qi
            assert q == pi & qi

    @given(same_width(count=2, max_width=16), st.integers(0, (1 << 16) - 1))
    def test_sum_preserved_everywhere(self, wv, positions):
        w, (p, q) = wv
        positions &= (1 << w) - 1
        p2, q2 = top_up(p, q, positions)
        assert p2 + q2 == p + q
        for i in range(w):
            if bit(positions, i):
                assert not (bit(q2, i) and not bit(p2, i))
            else:
                assert bit(p2, i) == bit(p, i) and bit(q2, i) == bit(q, i)


class TestSumRewrites:
    """The four ways to rewrite a two or three operand sum with bit logic.

    The comparisons are integer equalities on the operand values, so the
    bitwise sides are evaluated without any truncation.
    """

    @given(same_width(count=2))
    def test_xor_and_carry(self, wv):
        _, (x, y) = wv
        assert x + y == (x ^ y) + 2 * (x & y)

    @given(same_width(count=2))
    def test_or_plus_and(self, wv):
        _, (x, y) = wv
        assert x + y == (x | y) + (x & y)

    @given(same_width(count=3))
    def test_or_majority_and(self, wv):
        _, (x, y, z) = wv
        assert x + y + z == (x | y | z) + maj2of3(x, y, z) + (x & y & z)

    @given(same_width(count=3))
    def test_xor_plus_double_majority(self, wv):
        w, (x, y, z) = wv
        assert x + y + z == (x ^ y ^ z) + 2 * maj2of3(x, y, z)
        # the same identity through the adder the kernel uses, one bit wider
        # so nothing is erased
        s, c = csa(x, y, z, (2 << w) - 1)
        assert x + y + z == s + c
