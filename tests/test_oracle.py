import random

import pytest

from csmulmod import (
    exhaustive_mismatches,
    fold_pair,
    lcu,
    precompute,
    ref_mulmod,
    ref_mulmod_by_addition,
    replay_step_wide,
)


class TestRefMulmod:
    def test_known_product(self):
        assert ref_mulmod(63, 121, 173) == 11

    def test_zero_operand(self):
        assert ref_mulmod(0, 121, 173) == 0

    def test_identity_operand(self):
        assert ref_mulmod(1, 121, 173) == 121 % 173

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            ref_mulmod(1, 1, 0)

    def test_cross_check_against_repeated_addition(self):
        # the two reference implementations agree on every instance with
        # a modulus of at most five bits
        for k in range(3, 6):
            for R in range(1 << (k - 1), 1 << k):
                for A in range(R):
                    for B in range(R):
                        assert ref_mulmod(A, B, R) == ref_mulmod_by_addition(A, B, R)


class TestFoldPair:
    def test_single_conditional_subtract_suffices(self):
        assert fold_pair(70, 114, 173) == 11
        assert fold_pair(5, 6, 173) == 11
        assert fold_pair(0, 0, 173) == 0

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            fold_pair(173, 0, 173)

    def test_matches_plain_reduction(self):
        rng = random.Random(77)
        for _ in range(500):
            R = rng.randrange(4, 1 << 16)
            p, q = rng.randrange(R), rng.randrange(R)
            assert fold_pair(p, q, R) == (p + q) % R


class TestExhaustiveMismatches:
    def test_flags_exactly_the_wrong_lanes(self):
        R = 7
        # a correct split of each residue, lane A*R + B
        p = [(A * B) % R // 2 for A in range(R) for B in range(R)]
        q = [(A * B) % R - p[A * R + B] for A in range(R) for B in range(R)]
        assert exhaustive_mismatches(p, q, R) == []
        wrong = list(p)
        wrong[3 * R + 5] = (wrong[3 * R + 5] + 1) % R  # wrong residue
        wrong[4 * R + 2] += R  # right residue, entry not below R
        wrong[6 * R + 6] = R - 1  # wrong residue in the last lane
        assert exhaustive_mismatches(wrong, q, R) == [3 * R + 5, 4 * R + 2, 6 * R + 6]
        assert exhaustive_mismatches(q, wrong, R) == [3 * R + 5, 4 * R + 2, 6 * R + 6]


class TestReplayStepWide:
    def test_zero_state_drops_nothing(self):
        p = precompute(13, 4)
        assert replay_step_wide(0, 0, 0, 0, p.rx, 4) == (0, 0, 0, 0)

    def test_double_top_bits_drop_two_spans(self):
        # both registers with only the top bit set lose two units of
        # 2**(n+1) no matter which reduction constant is added
        p = precompute(13, 4)
        drops = replay_step_wide(16, 16, 0, 0, p.rx, 4)
        assert drops == (64, 64, 64, 64)

    def test_agrees_with_the_predictor(self):
        rng = random.Random(1234)
        for _ in range(2000):
            n = rng.randint(3, 10)
            params = precompute(rng.randrange(1 << (n - 1), 1 << n), n)
            p = rng.randrange(1 << (n + 1))
            q = rng.randrange(1 << (n + 1))
            a_i = rng.randint(0, 1)
            b = rng.randrange(params.modulus)
            f = lcu(
                ((p >> n) & 1, (p >> (n - 1)) & 1, (p >> (n - 2)) & 1),
                ((q >> n) & 1, (q >> (n - 1)) & 1, (q >> (n - 2)) & 1),
                a_i & ((b >> (n - 1)) & 1),
            )
            drops = replay_step_wide(p, q, a_i, b, params.rx, n)
            assert set(drops) == {f << (n + 1)}
