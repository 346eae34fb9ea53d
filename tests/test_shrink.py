import pytest

from csmulmod import (
    Accumulator,
    InvariantViolation,
    precompute,
    run_loop,
    run_shrink,
    shift_left_operand,
    shrink_cycle,
    top_up,
)
from csmulmod.shrink import shrink_rules

P13 = precompute(13, 4)  # rn=3, rx[1]=6


def acc5(p, q):
    return Accumulator(p, q, 4)


def bit(v, i):
    return (v >> i) & 1


def select(p, q, n):
    """The one-hot rule masks ``shrink_rules`` gives a post-top-up state."""
    rules, _, _ = shrink_rules(bit(p, n), bit(q, n), bit(p & q, n - 1))
    return rules


class TestShrinkRules:
    def test_both_top_bits(self):
        assert select(0b10000, 0b10000, 4) == (1, 0, 0, 0)

    def test_top_bit_with_next_pair(self):
        assert select(0b11000, 0b01000, 4) == (0, 1, 0, 0)

    def test_top_bit_alone(self):
        assert select(0b10000, 0, 4) == (0, 0, 1, 0)

    def test_next_pair_alone(self):
        assert select(0b01000, 0b01000, 4) == (0, 0, 0, 1)

    def test_done_on_zero(self):
        assert select(0, 0, 4) == (0, 0, 0, 0)

    def test_done_is_exactly_the_exit_shape(self):
        # on post-top-up states, no rule exactly when both top bits are
        # clear and the next-to-top pair is not doubly set
        for raw_p in range(32):
            for raw_q in range(32):
                p, q = top_up(raw_p, raw_q, 0b11000)
                rules = select(p, q, 4)
                exit_shape = (
                    not bit(p, 4) and not bit(q, 4) and not (bit(p, 3) and bit(q, 3))
                )
                assert (rules == (0, 0, 0, 0)) == exit_shape


class TestShrinkCycle:
    def test_worked_example_rule2(self):
        acc, cycle = shrink_cycle(acc5(24, 8), P13)
        assert cycle.rule == 2
        assert (acc.p, acc.q) == (cycle.p, cycle.q) == (6, 0)
        assert (cycle.topup_p, cycle.topup_q) == (24, 8)
        assert (24 + 8) % 13 == (6 + 0) % 13

    def test_zero_state_is_done(self):
        acc, cycle = shrink_cycle(acc5(0, 0), P13)
        assert cycle is None
        assert (acc.p, acc.q) == (0, 0)

    def test_rule1_discards_one_double_span(self):
        # both top bits set: the adder's erased carry bit pays exactly 2**5
        acc, cycle = shrink_cycle(acc5(16, 16), P13)
        assert cycle.rule == 1
        assert (acc.p + acc.q) % 13 == (16 + 16) % 13
        assert 16 + 16 + P13.rx[1] - (acc.p + acc.q) == 32

    def test_topup_runs_before_selection(self):
        # a lone top bit in q migrates to p and still triggers rule 3
        acc, cycle = shrink_cycle(acc5(0, 0b10000), P13)
        assert cycle.rule == 3
        assert (cycle.topup_p, cycle.topup_q) == (0b10000, 0)

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_a_cycle_raises_or_clears_only_set_bits(self, n):
        # Whatever the constant, a cycle either raises or moves the pair's
        # sum by exactly what its rule accounts for: plus the constant, minus
        # the doubled span rule 1 drops, minus 2**n per cleared top bit. A
        # cleared bit that was unset would add 2**n instead, so the drop
        # check alone keeps every cleared bit set.
        base = precompute((1 << n) - 1, n)
        cleared = {1: 0, 2: 2, 3: 1, 4: 1}
        raised = kept = 0
        for const in range(1 << (n + 1)):
            for params in (base._replace(rn=const), base._replace(rx=(0, const, *base.rx[2:]))):
                for p in range(1 << (n + 1)):
                    for q in range(1 << (n + 1)):
                        try:
                            acc, cycle = shrink_cycle(Accumulator(p, q, n), params)
                        except InvariantViolation:
                            raised += 1
                            continue
                        if cycle is None:
                            continue
                        added = params.rx[1] if cycle.rule <= 2 else params.rn
                        dropped = 1 << (n + 1) if cycle.rule == 1 else 0
                        assert acc.p + acc.q == (
                            cycle.topup_p + cycle.topup_q + added - dropped
                            - (cleared[cycle.rule] << n)
                        ), (p, q, params.rx[1], params.rn)
                        kept += 1
        assert raised and kept


class TestRunShrink:
    def test_entry_already_reduced(self):
        acc, report = run_shrink(acc5(5, 2), P13)
        assert report.cycles == 0
        assert report.rules_fired == ()
        assert (acc.p, acc.q) == (5, 2)

    def test_known_three_cycle_instance(self):
        params = precompute(173, 8)
        acc, _ = run_loop(63, shift_left_operand(121, params), params)
        out, report = run_shrink(acc, params)
        assert report.cycles == 3
        assert len(report.rules_fired) == report.cycles
        assert (out.p + out.q) % 173 == (acc.p + acc.q) % 173

    def test_a_fifth_cycle_raises(self):
        # no real constant set needs a fifth cycle; rn = 0b1111 for R=15
        # makes some register pairs need one, and each of those raises
        params = precompute(15, 4)._replace(rn=0b1111)
        raised = kept = 0
        for p in range(32):
            for q in range(32):
                try:
                    _, report = run_shrink(acc5(p, q), params)
                except InvariantViolation as exc:
                    assert str(exc).startswith("shrink needed more than 4 cycles")
                    raised += 1
                else:
                    assert report.cycles <= 4
                    kept += 1
        assert raised and kept

    def test_exhaustive_contracts_full_width(self):
        # every (p, q) register pair, reachable or not, for every 4-bit
        # modulus: the bound, exit shape, and residue hold universally
        for R in range(8, 16):
            params = precompute(R, 4)
            rs = params.modulus_shifted
            for p in range(32):
                for q in range(32):
                    out, report = run_shrink(acc5(p, q), params)
                    assert report.cycles <= 4
                    assert (out.p + out.q) % rs == (p + q) % rs
                    assert bit(out.p, 4) == 0 and bit(out.q, 4) == 0
                    assert not (bit(out.p, 3) and bit(out.q, 3))
                    assert out.p & out.q < 8  # anded pair below span/2
                    # per-cycle residue preservation
                    prev = p + q
                    for cyc in report.snapshots:
                        assert cyc.topup_p + cyc.topup_q == prev
                        assert (cyc.p + cyc.q) % rs == prev % rs
                        prev = cyc.p + cyc.q

    def test_heavy_rules_fire_first_on_loop_outputs(self):
        # the double-span rules appear only as the first firing when the
        # entry state actually came out of the main loop (synthetic states
        # can retrigger them, loop outputs never do)
        for k in range(3, 5):
            for R in range(1 << (k - 1), 1 << k):
                params = precompute(R, k)
                for B in range(R):
                    b = shift_left_operand(B, params)
                    for A in range(R):
                        acc, _ = run_loop(A, b, params)
                        _, report = run_shrink(acc, params)
                        for fired in report.rules_fired[1:]:
                            assert fired in (3, 4)

    def test_exhaustive_contracts_shifted(self):
        # shift path: states with the low gap bits clear stay clear
        params = precompute(13, 6)
        rs = params.modulus_shifted
        low = (1 << params.shift) - 1
        for p in range(0, 128, 4):
            for q in range(0, 128, 4):
                out, report = run_shrink(Accumulator(p, q, 6), params)
                assert report.cycles <= 4
                assert (out.p + out.q) % rs == (p + q) % rs
                assert out.p & low == 0 and out.q & low == 0
                assert bit(out.p, 6) == 0 and bit(out.q, 6) == 0
                assert not (bit(out.p, 5) and bit(out.q, 5))

    def test_power_of_two_modulus_zero_constants(self):
        # rn = rx[1] = 0 still reduces correctly through the rule adds
        params = precompute(8, 4)
        rs = params.modulus_shifted
        for p in range(32):
            for q in range(32):
                out, report = run_shrink(acc5(p, q), params)
                assert report.cycles <= 4
                assert (out.p + out.q) % rs == (p + q) % rs
