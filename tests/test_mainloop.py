import itertools
import random

import pytest

from csmulmod import (
    Accumulator,
    ContractViolation,
    lcu,
    loop_step,
    precompute,
    ref_mulmod,
    replay_step_wide,
    run_loop,
    shift_left_operand,
)


def exclusion_identities_hold(pn, pn1, pn2, qn, qn1, qn2, bt):
    """The two bit identities that keep the dropped value below four spans."""
    s4 = pn1 ^ qn1
    s5 = pn ^ qn
    c3 = (pn2 & qn2) | (bt & (pn2 | qn2))
    c4 = pn1 & qn1
    c5 = pn & qn
    first = c5 & s5 & c4
    second = (s5 ^ c4) & s4 & c3 & (c5 | (s5 & c4))
    return first == 0 and second == 0


class TestLcu:
    def test_zero_state(self):
        assert lcu((0, 0, 0), (0, 0, 0), 0) == 0

    def test_double_top_bits(self):
        assert lcu((1, 0, 0), (1, 0, 0), 0) == 2

    def test_double_next_bits(self):
        assert lcu((0, 1, 0), (0, 1, 0), 0) == 1

    def test_all_128_inputs_stay_below_four(self):
        for bits in itertools.product((0, 1), repeat=7):
            assert lcu(bits[0:3], bits[3:6], bits[6]) < 4

    def test_prediction_matches_wide_replay_on_all_128_inputs(self):
        # realize each bit combination as an actual register state at n=4
        params = precompute(13, 4)
        for bits in itertools.product((0, 1), repeat=7):
            pn, pn1, pn2, qn, qn1, qn2, bt = bits
            p = (pn << 4) | (pn1 << 3) | (pn2 << 2)
            q = (qn << 4) | (qn1 << 3) | (qn2 << 2)
            b = bt << 3
            f = lcu((pn, pn1, pn2), (qn, qn1, qn2), bt)
            drops = replay_step_wide(p, q, 1, b, params.rx, 4)
            assert set(drops) == {f << 5}
            assert exclusion_identities_hold(*bits)


class TestLoopStep:
    def test_first_step_loads_the_multiplicand(self):
        params = precompute(13, 4)
        acc = Accumulator(0, 0, 4)
        b = shift_left_operand(11, params)
        acc2, trace = loop_step(acc, 1, b, params, trace=True)
        assert (acc2.p, acc2.q, acc2.n) == (11, 0, 4)
        assert (trace.s, trace.c, trace.f, trace.ry) == (11, 0, 0, 0)
        assert trace.discarded == 0

    def test_zero_bit_keeps_zero_state(self):
        params = precompute(13, 4)
        acc = Accumulator(0, 0, 4)
        acc2, trace = loop_step(acc, 0, shift_left_operand(11, params), params, trace=True)
        assert (acc2.p, acc2.q) == (0, 0)
        assert trace.f == 0

    def test_record_built_only_when_traced(self):
        params = precompute(13, 4)
        b = shift_left_operand(11, params)
        acc = Accumulator(0b10110, 0b01100, 4)
        plain, none = loop_step(acc, 1, b, params)
        traced, record = loop_step(acc, 1, b, params, trace=True)
        assert none is None and plain == traced
        assert (record.p_out, record.q_out) == (plain.p, plain.q)

    def test_step_contracts_randomized(self):
        # residue preservation, drop accounting, predictor independence,
        # and the exclusion identities on random live states
        rng = random.Random(99)
        for _ in range(1500):
            n = rng.randint(3, 12)
            k = rng.randint(3, n)
            R = rng.randrange(max(4, 1 << (k - 1)), 1 << k)
            params = precompute(R, n)
            m = n + 1
            mask_low = (1 << params.shift) - 1
            p = rng.randrange(1 << m) & ~mask_low
            q = rng.randrange(1 << m) & ~mask_low
            a_i = rng.randint(0, 1)
            B = rng.randrange(R)
            b = shift_left_operand(B, params)
            acc2, tr = loop_step(Accumulator(p, q, n), a_i, b, params, trace=True)
            span2 = 1 << m
            rs = params.modulus_shifted
            assert tr.f < 4
            assert tr.discarded == tr.f * span2
            assert (tr.p_out, tr.q_out) == (acc2.p, acc2.q)
            assert acc2.p >> m == 0 and acc2.q >> m == 0
            assert (tr.p_out + tr.q_out) % rs == (2 * (p + q) + a_i * b) % rs
            drops = replay_step_wide(p, q, a_i, b, params.rx, n)
            assert set(drops) == {tr.f * span2}
            assert exclusion_identities_hold(
                (p >> n) & 1, (p >> (n - 1)) & 1, (p >> (n - 2)) & 1,
                (q >> n) & 1, (q >> (n - 1)) & 1, (q >> (n - 2)) & 1,
                a_i & (b >> (n - 1)) & 1,
            )
            assert tr.p_out & mask_low == 0 and tr.q_out & mask_low == 0


class TestRunLoop:
    def test_zero_multiplier(self):
        params = precompute(173, 8)
        acc, traces = run_loop(0, shift_left_operand(121, params), params, trace=True)
        assert (acc.p, acc.q) == (0, 0)
        assert len(traces) == params.k  # leading zeros still take iterations

    def test_identity_multiplier(self):
        params = precompute(173, 8)
        b = shift_left_operand(121, params)
        acc, _ = run_loop(1, b, params)
        assert (acc.p + acc.q) % params.modulus_shifted == b

    def test_known_instance_residue_at_exit(self):
        params = precompute(173, 8)
        acc, _ = run_loop(63, shift_left_operand(121, params), params)
        expected = ref_mulmod(63, 121, 173)
        assert (acc.p + acc.q) % 173 == expected == 11

    def test_rejects_multiplier_at_or_above_modulus(self):
        params = precompute(173, 8)
        b = shift_left_operand(1, params)
        with pytest.raises(ContractViolation, match="A < R"):
            run_loop(173, b, params)
        with pytest.raises(ContractViolation, match="A >= 0"):
            run_loop(-1, b, params)
        for bad in (3.0, True, "3"):
            with pytest.raises(ContractViolation, match="A must be an int"):
                run_loop(bad, b, params)

    def test_exit_residue_exhaustive_small(self):
        for R in range(8, 16):
            params = precompute(R, 4)
            for B in range(R):
                b = shift_left_operand(B, params)
                for A in range(R):
                    acc, _ = run_loop(A, b, params)
                    assert (acc.p + acc.q) % R == (A * B) % R

    def test_shift_path_keeps_low_bits_clear(self):
        params = precompute(13, 8)
        low = (1 << params.shift) - 1
        for A in range(13):
            for B in range(13):
                acc, traces = run_loop(A, shift_left_operand(B, params), params, trace=True)
                for st in traces:
                    assert st.p_out & low == 0 and st.q_out & low == 0
