import random

import pytest

from csmulmod import (
    ContractViolation,
    InvariantViolation,
    fold_pair,
    mulmod,
    mulmod_checked,
    precompute,
    ref_mulmod,
)


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
