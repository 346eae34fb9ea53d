import random

import pytest

from csmulmod import (
    Accumulator,
    ContractViolation,
    InvariantViolation,
    ModulusParams,
    MulResult,
    fold_pair,
    mulmod,
    mulmod_checked,
    precompute,
    ref_mulmod,
    run_loop,
    shift_left_operand,
)
from csmulmod import pipeline
from test_sliced import TAMPERS


class TestMulmod:
    def test_known_three_cycle_instance(self):
        result = mulmod(63, 121, 173, 8)
        assert result.p < 173 and result.q < 173
        assert (result.p + result.q) % 173 == ref_mulmod(63, 121, 173) == 11
        assert result.shrink_cycles == 3

    def test_zero_operand(self):
        result = mulmod(0, 121, 173, 8)
        assert (result.p, result.q) == (0, 0)

    def test_identity_operand(self):
        for B in (1, 7, 100, 172):
            result = mulmod(1, B, 173, 8)
            assert (result.p + result.q) % 173 == B

    def test_preconditions_named(self):
        with pytest.raises(ContractViolation, match="n > 2"):
            mulmod(1, 1, 173, 2)
        with pytest.raises(ContractViolation, match="R >= 4"):
            mulmod(1, 1, 3, 8)
        with pytest.raises(ContractViolation, match="bit-length"):
            mulmod(1, 1, 300, 8)
        with pytest.raises(ContractViolation, match="A < R"):
            mulmod(173, 1, 173, 8)
        with pytest.raises(ContractViolation, match="B < R"):
            mulmod(1, 173, 173, 8)
        with pytest.raises(ContractViolation, match="A >= 0"):
            mulmod(-1, 1, 173, 8)

    def test_non_int_inputs_named(self):
        params = precompute(173, 8)
        for bad in (3.0, True):
            with pytest.raises(ContractViolation, match="A must be an int"):
                mulmod(bad, 1, 173, 8)
            with pytest.raises(ContractViolation, match="B must be an int"):
                mulmod(1, bad, 173, 8)
        for reuse in (None, params):
            with pytest.raises(ContractViolation, match="R must be an int"):
                mulmod(1, 1, 173.0, 8, params=reuse)
            with pytest.raises(ContractViolation, match="n must be an int"):
                mulmod(1, 1, 173, 8.0, params=reuse)

    def test_params_reuse_must_match(self):
        params = precompute(11, 4)
        with pytest.raises(ContractViolation, match="params built for"):
            mulmod(1, 1, 13, 4, params=params)

    def test_trace_shape(self):
        result = mulmod(63, 121, 173, 8, trace=True)
        tr = result.traces
        assert len(tr.steps) == 8
        for st in tr.steps:
            assert st.f < 4
            assert st.discarded == st.f * (1 << 9)
        assert tr.shrink.cycles == result.shrink_cycles
        assert tr.squeeze.rule == result.squeeze_rule

    def test_untraced_result_carries_diagnostics(self):
        result = mulmod(63, 121, 173, 8)
        assert result.traces is None
        assert result.shrink_cycles == 3
        assert result.squeeze_rule in range(1, 7)

    def test_seam_checks_pass_on_valid_runs(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(3, 16)
            k = rng.randint(3, n)
            R = rng.randrange(1 << (k - 1), 1 << k)
            A = rng.randrange(R)
            B = rng.randrange(R)
            result = mulmod(A, B, R, n)
            assert (result.p + result.q) % R == (A * B) % R
            assert result.p < R and result.q < R
            assert result.p + result.q < 2 * R

    def test_seam_checks_catch_low_bit_leaks(self):
        # an odd reduction constant on the shift path sets a bit the
        # final division would drop; the first seam names the stage
        params = precompute(13, 8)
        bad = params._replace(rx=(0, params.rx[1] | 1, params.rx[2], params.rx[3]))
        leaked = [
            A for A in range(13)
            if any(st.f == 1 for st in mulmod(A, 12, 13, 8, trace=True).traces.steps)
        ]
        assert leaked
        with pytest.raises(InvariantViolation, match="low bits after main loop"):
            mulmod(leaked[0], 12, 13, 8, params=bad)


class TestMulmodChecked:
    def test_agrees_on_valid_instances(self):
        rng = random.Random(6)
        for _ in range(200):
            k = rng.randint(3, 12)
            R = rng.randrange(1 << (k - 1), 1 << k)
            _, ok = mulmod_checked(rng.randrange(R), rng.randrange(R), R, k)
            assert ok

    def test_tampered_constants_are_caught(self):
        params = precompute(173, 8)
        bad = params._replace(rx=(0, params.rx[1] + 1, params.rx[2], params.rx[3]))
        _, ok = mulmod_checked(63, 121, 173, 8, params=bad)
        assert not ok
        bad_rn = params._replace(rn=params.rn + 1)
        _, ok = mulmod_checked(63, 121, 173, 8, params=bad_rn)
        assert not ok

    def test_an_exit_not_below_the_modulus_raises(self):
        # rule 3 adding R * 2**shift too much lifts some exits to R or past
        # it, with clear low bits; mulmod raises on those, so mulmod_checked
        # returns no pair that is not below R
        for n, R in ((4, 11), (7, 11)):
            params = precompute(R, n)
            bad = params._replace(rm=(params.rm + (R << params.shift)) & (params.mask >> 1))
            raised = 0
            for A in range(R):
                for B in range(R):
                    try:
                        result, _ = mulmod_checked(A, B, R, n, params=bad)
                    except InvariantViolation as exc:
                        assert str(exc).startswith("squeeze exit not below the modulus")
                        raised += 1
                    else:
                        assert result.p < R and result.q < R
            assert raised, n

    def test_shift_path_instance(self):
        params = precompute(13, 8)
        low = (1 << params.shift) - 1
        for A in range(13):
            for B in range(13):
                result = mulmod(A, B, 13, 8, trace=True, params=params)
                assert result.p < 13 and result.q < 13
                assert fold_pair(result.p, result.q, 13) == ref_mulmod(A, B, 13)
                for st in result.traces.steps:
                    assert st.p_out & low == 0 and st.q_out & low == 0


def outcome(A, B, R, n, trace, params):
    """What ``mulmod`` gives: (p, q, shrink cycles, squeeze rule), or the
    message of the ``InvariantViolation`` it raises."""
    try:
        result = mulmod(A, B, R, n, trace, params=params)
    except InvariantViolation as exc:
        return str(exc)
    return result.p, result.q, result.shrink_cycles, result.squeeze_rule


# every k=4 instance at n=k and on the shift path, and AC3's 3-cycle
# instance at three widths
K4 = [(n, R) for n in (4, 7) for R in range(8, 16)]
AC3 = [(173, 63, 121, n) for n in (8, 64, 257)]


class TestTracedAndUntracedAgree:
    """An untraced run builds no shrink or squeeze record; it must return
    and raise exactly what a traced run does."""

    def outcomes(self, tamper=lambda params: params):
        """Per instance, the traced and the untraced outcome."""
        pairs = []
        for n, R in K4:
            params = tamper(precompute(R, n))
            for A in range(R):
                for B in range(R):
                    pairs.append(tuple(outcome(A, B, R, n, t, params) for t in (True, False)))
        for R, A, B, n in AC3:
            params = tamper(precompute(R, n))
            pairs.append(tuple(outcome(A, B, R, n, t, params) for t in (True, False)))
        return pairs

    def test_results_agree_over_every_cycle_count_and_rule(self):
        pairs = self.outcomes()
        assert all(traced == untraced for traced, untraced in pairs)
        assert {cycles for (_, _, cycles, _), _ in pairs} == {0, 1, 2, 3}
        assert {rule for (_, _, _, rule), _ in pairs} == {1, 2, 3, 4, 5, 6}

    @pytest.mark.parametrize("reason", TAMPERS)
    def test_a_broken_check_raises_the_same_message(self, reason):
        # each tamper of the sliced kernel's tests breaks one check, and
        # some of these instances raise its message
        pairs = self.outcomes(TAMPERS[reason])
        assert all(traced == untraced for traced, untraced in pairs)
        message = reason.removeprefix("InvariantViolation: ")
        if message != reason:
            assert any(isinstance(traced, str) and traced.startswith(message) for traced, _ in pairs)

    @pytest.mark.parametrize("n", [8, 64, 257])
    def test_records_built_from_c_have_their_type_and_length(self, n):
        # precompute, run_loop and an untraced mulmod build their records
        # through tuple.__new__, which checks no field count; a full-width
        # modulus takes the loop's reversed frame from k = 29 steps, and
        # R = 173 its shared body
        rng = random.Random(n)
        for R in (173, rng.randrange(1 << (n - 1), 1 << n)):
            params = precompute(R, n)
            A, B = rng.randrange(R), rng.randrange(R)
            b = shift_left_operand(B, params)
            acc, steps = run_loop(A, b, params)
            result = mulmod(A, B, R, n, params=params)
            for record, cls in ((params, ModulusParams), (acc, Accumulator), (result, MulResult)):
                assert type(record) is cls and len(record) == len(cls._fields), cls
            assert steps is None and result.traces is None
            assert acc == run_loop(A, b, params, trace=True)[0]
            assert result[:4] == mulmod(A, B, R, n, True, params=params)[:4]

    @pytest.mark.parametrize(
        "message, top_p, top_q",
        [
            ("squeeze entered with a set top bit", 2, 0),
            ("squeeze entered with both next-to-top bits set", 1, 1),
        ],
    )
    def test_a_broken_squeeze_entry_raises_the_same_message(self, monkeypatch, message, top_p, top_q):
        # shrink never leaves either shape, so each is forced after it: the
        # top bit n (2) or the next-to-top bit n-1 (1) of p and of q is set
        real = pipeline.run_shrink

        def broken(acc, params, trace=True):
            acc, report = real(acc, params, trace)
            p, q, n = acc
            out = (p | top_p << (n - 1), q | top_q << (n - 1), n)
            return (Accumulator(*out) if trace else out), report

        monkeypatch.setattr(pipeline, "run_shrink", broken)
        pairs = self.outcomes()
        assert all(traced == untraced for traced, untraced in pairs)
        assert all(traced.startswith(message) for traced, _ in pairs)
