import pytest

from csmulmod import (
    Accumulator,
    InvariantViolation,
    precompute,
    qcu_apply,
    squeeze_topup,
)


def acc_of(width, p, q):
    return Accumulator(p, q, width - 1)


def entry_ok(width, p, q):
    n = width - 1
    top = 1 << n
    nxt = 1 << (n - 1)
    return not (p & top) and not (q & top) and not (p & nxt and q & nxt)


class TestSqueezeTopup:
    def test_bits_collect_in_p(self):
        out = squeeze_topup(acc_of(5, 0b01010, 0b00100))
        assert (out.p, out.q) == (0b01110, 0)

    def test_zero_unchanged(self):
        out = squeeze_topup(acc_of(5, 0, 0))
        assert (out.p, out.q) == (0, 0)

    def test_treated_bits_of_q_end_clear(self):
        out = squeeze_topup(acc_of(5, 0b01000, 0b00100))
        assert (out.p, out.q) == (0b01100, 0)

    def test_rejects_set_top_bit(self):
        with pytest.raises(InvariantViolation, match="top bit"):
            squeeze_topup(acc_of(5, 0b10000, 0))

    def test_rejects_double_next_bits(self):
        with pytest.raises(InvariantViolation, match="next-to-top"):
            squeeze_topup(acc_of(5, 0b01000, 0b01000))

    def test_sum_preserved_and_q_shrinks(self):
        for p in range(32):
            for q in range(32):
                if not entry_ok(5, p, q):
                    continue
                out = squeeze_topup(acc_of(5, p, q))
                assert out.p + out.q == p + q
                assert (out.q >> 3) & 1 == 0  # q fits one bit tighter now


class TestQcuRules:
    def test_rule6_worked_example(self):
        params = precompute(13, 4)  # guide bit set
        entry = squeeze_topup(acc_of(5, 0b01010, 0b00100))
        assert (entry.p, entry.q) == (14, 0)
        out, report = qcu_apply(entry, params)
        assert report.rule == 6
        assert (out.p, out.q) == (10, 4)
        assert out.p + out.q == 14  # exact, not just congruent

    def test_rule1_is_a_genuine_noop(self):
        params = precompute(13, 4)
        entry = acc_of(5, 0b00101, 0b00010)
        out, report = qcu_apply(entry, params)
        assert report.rule == 1
        assert (out.p, out.q) == (entry.p, entry.q)

    def test_rule2_clears_and_compensates(self):
        params = precompute(13, 4)
        entry = squeeze_topup(acc_of(5, 0b01100, 0b00100))
        assert (entry.p, entry.q) == (0b01100, 0b00100)
        out, report = qcu_apply(entry, params)
        assert report.rule == 2
        assert (report.edited_p, report.edited_q) == (0, 0)
        assert (out.p, out.q) == (3, 0)
        assert (out.p + out.q) % 13 == (0b01100 + 0b00100) % 13

    def test_rule_selection_covers_every_state(self):
        # all four-bit-window combinations through both guide-bit values
        for r_bit, modulus in ((0, 9), (1, 13)):
            params = precompute(modulus, 4)
            assert params.r_bit == r_bit
            for p in range(32):
                for q in range(32):
                    if not entry_ok(5, p, q):
                        continue
                    entry = squeeze_topup(acc_of(5, p, q))
                    _, report = qcu_apply(entry, params)
                    assert report.rule in (1, 2, 3, 4, 5, 6)


def run_squeeze_sweep(params, width, step=1):
    rs = params.modulus << params.shift
    for p in range(0, 1 << width, step):
        for q in range(0, 1 << width, step):
            if not entry_ok(width, p, q):
                continue
            entry = squeeze_topup(acc_of(width, p, q))
            out, report = qcu_apply(entry, params)
            n = width - 1
            # soundness of the bit-editing rules
            if report.rule in (1, 5):
                assert (out.p, out.q) == (entry.p, entry.q)  # true no-ops
            if report.rule in (4, 6):
                assert out.p + out.q == p + q
            if report.rule == 6:
                assert (report.entry_q >> (n - 2)) & 1 == 0
                assert (report.entry_p >> (n - 2)) & 1 == 1
            if report.rule == 4:
                assert (report.entry_p >> (n - 1)) & 1 == 1
                assert (report.entry_p >> (n - 2)) & 1 == 0
                assert (report.entry_q >> (n - 2)) & 1 == 0
            assert out.p < rs and out.q < rs
            assert (out.p + out.q) % rs == (p + q) % rs


class TestQcuContracts:
    def test_exhaustive_all_moduli_width4(self):
        for R in range(8, 16):
            run_squeeze_sweep(precompute(R, 4), 5)

    def test_exhaustive_all_moduli_width5(self):
        for R in range(16, 32):
            run_squeeze_sweep(precompute(R, 5), 6)

    def test_exhaustive_shift_path(self):
        # low gap bits stay clear through edits and additions
        params = precompute(13, 6)
        run_squeeze_sweep(params, 7, step=4)

    def test_power_of_two_modulus(self):
        run_squeeze_sweep(precompute(8, 4), 5)
