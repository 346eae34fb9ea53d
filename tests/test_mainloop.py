import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from csmulmod import (
    MAX_WIDTH,
    ContractViolation,
    StepTrace,
    csa,
    lcu,
    mulmod,
    precompute,
    ref_mulmod,
    replay_step_wide,
    run_loop,
    shift_left_operand,
)
from csmulmod.mainloop import _F_REVERSED, _F_TABLE, _REV8, REVERSED_FROM


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


def top3(v, n):
    return ((v >> n) & 1, (v >> (n - 1)) & 1, (v >> (n - 2)) & 1)


def reference_loop(A, b, params):
    """The loop written step by step from ``lcu`` on explicit bit triples
    and two ``csa`` calls, as the reference the table-driven, inline
    ``run_loop`` must match. Returns each step's record fields as
    (i, a_i, p_in, q_in, s, c, f, ry, p_out, q_out)."""
    n, mask = params.n, params.mask
    p = q = 0
    steps = []
    for i in range(params.k - 1, -1, -1):
        a_i = (A >> i) & 1
        f = lcu(top3(p, n), top3(q, n), a_i & (b >> (n - 1)))
        s, c = csa((p << 1) & mask, (q << 1) & mask, b if a_i else 0, mask)
        ry = params.rx[f]
        p_out, q_out = csa(s, c, ry, mask)
        steps.append((i, a_i, p, q, s, c, f, ry, p_out, q_out))
        p, q = p_out, q_out
    return steps


class TestLoopRecords:
    def test_first_step_loads_the_multiplicand(self):
        params = precompute(13, 4)
        _, traces = run_loop(8, shift_left_operand(11, params), params, trace=True)
        first = traces[0]
        assert (first.i, first.a_i, first.p_in, first.q_in) == (3, 1, 0, 0)
        assert (first.p_out, first.q_out) == (11, 0)
        assert (first.s, first.c, first.f, first.ry) == (11, 0, 0, 0)
        assert first.discarded == 0

    def test_zero_bit_keeps_zero_state(self):
        params = precompute(13, 4)
        b = shift_left_operand(11, params)
        for A in range(8):  # top bit clear: the first step adds nothing
            _, traces = run_loop(A, b, params, trace=True)
            first = traces[0]
            assert first.a_i == 0
            assert (first.p_out, first.q_out, first.f) == (0, 0, 0)
        _, traces = run_loop(0, b, params, trace=True)
        assert all((st.p_out, st.q_out, st.f) == (0, 0, 0) for st in traces)

    def test_untraced_equals_traced_and_records_chain(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(3, 40)
            R = rng.randrange(4, 1 << rng.randint(3, n))
            params = precompute(R, n)
            A = rng.randrange(R)
            B = rng.randrange(R)
            b = shift_left_operand(B, params)
            plain, none = run_loop(A, b, params)
            traced, traces = run_loop(A, b, params, trace=True)
            assert none is None and plain == traced
            # records are built without _make's field-count check
            assert all(
                type(st) is StepTrace and len(st) == len(StepTrace._fields)
                for st in traces
            )
            assert mulmod(A, B, R, n, trace=True).traces.steps == tuple(traces)
            assert [st.i for st in traces] == list(range(params.k - 1, -1, -1))
            assert (traces[0].p_in, traces[0].q_in) == (0, 0)
            for st, nxt in zip(traces, traces[1:]):
                assert (st.p_out, st.q_out) == (nxt.p_in, nxt.q_in)
            assert (traces[-1].p_out, traces[-1].q_out) == (plain.p, plain.q)

    def test_step_contracts_randomized(self):
        # drop accounting, residue preservation, cleared low bits, the wide
        # replay and the exclusion identities on every record of random runs
        rng = random.Random(99)
        for _ in range(250):
            n = rng.randint(3, 12)
            k = rng.randint(3, n)
            R = rng.randrange(max(4, 1 << (k - 1)), 1 << k)
            params = precompute(R, n)
            m = n + 1
            span2 = 1 << m
            rs = params.modulus << params.shift
            mask_low = (1 << params.shift) - 1
            b = shift_left_operand(rng.randrange(R), params)
            _, traces = run_loop(rng.randrange(R), b, params, trace=True)
            for tr in traces:
                p, q, a_i = tr.p_in, tr.q_in, tr.a_i
                assert tr.f < 4
                assert tr.discarded == tr.f * span2
                assert tr.p_out >> m == 0 and tr.q_out >> m == 0
                assert (tr.p_out + tr.q_out) % rs == (2 * (p + q) + a_i * b) % rs
                assert tr.p_out & mask_low == 0 and tr.q_out & mask_low == 0
                drops = replay_step_wide(p, q, a_i, b, params.rx, n)
                assert set(drops) == {tr.f * span2}
                assert exclusion_identities_hold(
                    *top3(p, n), *top3(q, n), a_i & (b >> (n - 1)) & 1
                )


def loop_records(traces):
    """The fields ``reference_loop`` gives, from each StepTrace."""
    return [
        (st.i, st.a_i, st.p_in, st.q_in, st.s, st.c, st.f, st.ry, st.p_out, st.q_out)
        for st in traces
    ]


# Every step shape the loop branches on: multiplier bit a_i, and whether
# the reduction constant is non-zero (a zero one makes the second addition
# a half adder).
STEP_SHAPES = set(itertools.product((0, 1), (False, True)))


class TestLoopDifferential:
    """Untraced run_loop, traced run_loop, mulmod's loop records and the
    step-by-step reference all end on the same pair, and the instances of
    each test reach every step shape."""

    @staticmethod
    def check(A, B, R, n, params):
        """Run the comparison; returns the (a_i, ry != 0) shapes it reached."""
        b = shift_left_operand(B, params)
        plain, _ = run_loop(A, b, params)
        traced, traces = run_loop(A, b, params, trace=True)
        last = mulmod(A, B, R, n, trace=True, params=params).traces.steps[-1]
        pair = (plain.p, plain.q)
        assert pair == (traced.p, traced.q) == (last.p_out, last.q_out)
        records = loop_records(traces)
        assert records == reference_loop(A, b, params), (A, B, R, n)
        assert pair == records[-1][-2:]
        assert (plain.p + plain.q) % (params.modulus << params.shift) == (
            A * b % (params.modulus << params.shift)
        )
        return {(st.a_i, st.ry != 0) for st in traces}

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("wide", [False, True])
    def test_every_instance_small(self, k, wide):
        n = 8 if wide else k
        shapes = set()
        for R in range(1 << (k - 1), 1 << k):
            params = precompute(R, n)
            for A in range(R):
                for B in range(R):
                    shapes |= self.check(A, B, R, n, params)
        assert shapes == STEP_SHAPES

    # Untraced calls of at least REVERSED_FROM steps (k) run the
    # bit-reversed body and shorter ones the shared body. Each width cycles
    # k through n, the step counts on both sides of that crossover (at most
    # n) and a random shorter modulus, so every width above REVERSED_FROM
    # runs both bodies with k < n. At 255 and 1023, n+1 is a whole number
    # of bytes, so the reversal's packed widths need no padding; 7 and 15
    # are such widths too, but run only the shared body.
    @pytest.mark.parametrize(
        "n",
        [7, 15, REVERSED_FROM - 1, REVERSED_FROM, 64, 255, 256, 1023, 1024, MAX_WIDTH],
    )
    def test_random_wide(self, n):
        rng = random.Random(n)
        shapes = set()
        for j in range(200 if n <= 1024 else 4):
            k = min(n, (n, REVERSED_FROM - 1, REVERSED_FROM, rng.randint(3, n))[j % 4])
            R = rng.randrange(max(4, 1 << (k - 1)), 1 << k)
            params = precompute(R, n)
            shapes |= self.check(rng.randrange(R), rng.randrange(R), R, n, params)
        assert shapes == STEP_SHAPES

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_a_nonzero_first_constant_is_still_added(self, n):
        # The half adder is taken when the selected constant is zero, not
        # when f is: a tampered rx[0] must still be added on f = 0 steps.
        rng = random.Random(n)
        R = rng.randrange((1 << (n - 1)) + 1, 1 << n)
        params = precompute(R, n)
        for v in {params.rx[1], params.rx[3], 1 << params.shift}:
            assert v
            tampered = params._replace(rx=(v, *params.rx[1:]))
            for _ in range(8):
                A = rng.randrange(R)
                b = shift_left_operand(rng.randrange(R), params)
                plain, _ = run_loop(A, b, tampered)
                _, traces = run_loop(A, b, tampered, trace=True)
                records = loop_records(traces)
                assert records == reference_loop(A, b, tampered), (A, b, v)
                assert (plain.p, plain.q) == records[-1][-2:]
                assert any(st.f == 0 and st.ry == v for st in traces)


    @given(hst.data())
    def test_bits_above_the_registers_are_dropped(self, data):
        # Hand-built inputs with bits at or above n+1 end on the pair that
        # the inputs without them give: the shared body's masks drop those
        # bits, so the reversed body must mask before it reverses. rx[0]
        # is among the constants; with only such bits it is non-zero but
        # adds nothing.
        n = data.draw(
            hst.one_of(
                hst.integers(3, 16),
                hst.integers(REVERSED_FROM - 2, REVERSED_FROM + 40),
                hst.sampled_from([63, 64, 255, 256]),
            ),
            label="n",
        )
        k = data.draw(hst.integers(3, n), label="k")
        R = data.draw(hst.integers(max(4, 1 << (k - 1)), (1 << k) - 1), label="R")
        params = precompute(R, n)
        b = shift_left_operand(data.draw(hst.integers(0, R - 1), label="B"), params)
        A = data.draw(hst.integers(0, R - 1), label="A")
        above = hst.integers(1, 4095).map(lambda v: v << (n + 1))
        rx = tuple(
            r | data.draw(above, label=f"rx[{f}]") for f, r in enumerate(params.rx)
        )
        wide_b = b | data.draw(above, label="B_shifted")
        wide = params._replace(rx=rx)
        expected, _ = run_loop(A, b, params, trace=True)
        plain, none = run_loop(A, wide_b, wide)
        traced, traces = run_loop(A, wide_b, wide, trace=True)
        assert none is None
        assert plain == traced == expected == (traces[-1].p_out, traces[-1].q_out, n)

    @pytest.mark.parametrize("n", [REVERSED_FROM, 64, 256])
    def test_each_input_is_masked_on_its_own(self, n):
        # f = 3 is rare, so the property above seldom reads rx[3]: here an
        # instance whose steps select all four constants takes bits above
        # n+1 on one input at a time, and each must leave the pair alone.
        rng = random.Random(n)
        while True:
            R = rng.randrange((1 << (n - 1)) + 1, 1 << n)
            params = precompute(R, n)
            A, b = rng.randrange(R), shift_left_operand(rng.randrange(R), params)
            expected, traces = run_loop(A, b, params, trace=True)
            if {rec.f for rec in traces} == {0, 1, 2, 3}:
                break
        above = 0xABC << (n + 1)
        assert run_loop(A, b | above, params)[0] == expected
        for f in range(4):
            rx = list(params.rx)
            rx[f] |= above
            assert run_loop(A, b, params._replace(rx=tuple(rx)))[0] == expected, f

    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    def test_edge_operands(self, n):
        # Both step branches at their edges: A all zeros, all ones below the
        # top bit and alternating bits; B with bit k-1 (bit n-1 once
        # shifted, the partial product's top bit) set and clear; the
        # smallest and the largest modulus of each length, with k = n and
        # k < n.
        shapes = set()
        for k in (n, n // 2 + 1):
            ones = (1 << k) - 1
            alternating = (int(("10" * k)[:k], 2), int(("01" * k)[:k], 2))
            for R in (1 << (k - 1), ones):
                params = precompute(R, n)
                operands = {0, R - 1, *alternating, (1 << (k - 1)) - 1, 1 << (k - 1)}
                operands = sorted(v for v in operands if v < R)
                for A in operands:
                    for B in operands:
                        shapes |= self.check(A, B, R, n, params)
        assert shapes == STEP_SHAPES


class TestReversedFrame:
    def test_byte_table_reverses_every_byte(self):
        assert _REV8 == bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))

    def test_table_is_indexed_by_the_reversed_top_bits(self):
        # _F_REVERSED[b][x][a] reads x and a with bit n at bit 0
        rev3 = [int(f"{v:03b}"[::-1], 2) for v in range(8)]
        for b_top, x3, a3 in itertools.product((0, 1), range(8), range(8)):
            assert _F_REVERSED[b_top][rev3[x3]][rev3[a3]] == _F_TABLE[b_top][x3][a3]


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
        assert (acc.p + acc.q) % (params.modulus << params.shift) == b

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
