"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (visible
with ``pytest -s``). Criteria that share an expensive enumeration reuse
one cached run. Set CSMULMOD_NIGHTLY=1 to extend the exhaustive widths
of AC1 and AC4, which share one sweep, from 6 to 11 bits.
"""

import functools
import itertools
import os
import random

import conftest

from csmulmod import (
    SweepConfig,
    csa,
    exhaustive_sweep,
    maj2of3,
    mulmod,
    precompute,
    random_sweep,
    ref_mulmod,
    replay_step_wide,
    top_up,
)
from csmulmod.mainloop import predict

JOBS = min(4, os.cpu_count() or 1)
K_MAX = 11 if os.environ.get("CSMULMOD_NIGHTLY") else 6


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{criterion}: {detail}"


def _bits_top3(v: int, n: int) -> tuple[int, int, int]:
    return ((v >> n) & 1, (v >> (n - 1)) & 1, (v >> (n - 2)) & 1)


def _exclusions_hold(pt, qt, bt) -> bool:
    pn, pn1, pn2 = pt
    qn, qn1, qn2 = qt
    s4 = pn1 ^ qn1
    s5 = pn ^ qn
    c3 = (pn2 & qn2) | (bt & (pn2 | qn2))
    c4 = pn1 & qn1
    c5 = pn & qn
    return (c5 & s5 & c4) == 0 and ((s5 ^ c4) & s4 & c3 & (c5 | (s5 & c4))) == 0


def _verify_instance_deep(A, B, R, n, params, agg):
    """Full-strength checks on every stage of one instance."""
    result = mulmod(A, B, R, n, trace=True, params=params)
    tr = result.traces
    rs = params.modulus << params.shift
    span2 = 1 << (n + 1)
    b = B << params.shift
    bad = agg["violations"]

    for st in tr.steps:
        agg["steps"] += 1
        pt = _bits_top3(st.p_in, n)
        qt = _bits_top3(st.q_in, n)
        bt = st.a_i & ((b >> (n - 1)) & 1)
        if st.f >= 4 or predict(*pt, *qt, bt) != (st.f & 1, st.f >> 1):
            bad.append(("predictor", n, R, A, B, st.i))
        if st.discarded != st.f * span2:
            bad.append(("drop-accounting", n, R, A, B, st.i))
        drops = replay_step_wide(st.p_in, st.q_in, st.a_i, b, params.rx, n)
        if set(drops) != {st.f * span2}:
            bad.append(("candidate-independence", n, R, A, B, st.i))
        if (st.p_out + st.q_out) % rs != (2 * (st.p_in + st.q_in) + st.a_i * b) % rs:
            bad.append(("step-residue", n, R, A, B, st.i))
        if not _exclusions_hold(pt, qt, bt):
            bad.append(("exclusion-identity", n, R, A, B, st.i))

    sh = tr.shrink
    prev = sh.entry_p + sh.entry_q
    for idx, cyc in enumerate(sh.snapshots):
        if cyc.topup_p + cyc.topup_q != prev:
            bad.append(("shrink-topup-sum", n, R, A, B, idx))
        if (cyc.p + cyc.q) % rs != prev % rs:
            bad.append(("shrink-residue", n, R, A, B, idx))
        if idx > 0 and cyc.rule in (1, 2):
            bad.append(("shrink-heavy-rule-refire", n, R, A, B, idx))
        prev = cyc.p + cyc.q
    if sh.cycles > 4:
        bad.append(("shrink-bound", n, R, A, B, sh.cycles))
    if (sh.exit_p + sh.exit_q) % rs != (sh.entry_p + sh.entry_q) % rs:
        bad.append(("shrink-module-residue", n, R, A, B))

    sq = tr.squeeze
    agg["squeeze_rules"][sq.rule] += 1
    if sq.entry_p + sq.entry_q != sh.exit_p + sh.exit_q:
        bad.append(("squeeze-topup-sum", n, R, A, B))
    if sq.rule in (4, 6) and sq.exit_p + sq.exit_q != sq.entry_p + sq.entry_q:
        bad.append(("squeeze-exact-sum", n, R, A, B))
    if sq.rule == 6 and not (
        (sq.entry_p >> (n - 2)) & 1 and not (sq.entry_q >> (n - 2)) & 1
    ):
        bad.append(("squeeze-rule6-precondition", n, R, A, B))
    if sq.rule == 4 and not (
        (sq.entry_p >> (n - 1)) & 1
        and not (sq.entry_p >> (n - 2)) & 1
        and not (sq.entry_q >> (n - 2)) & 1
    ):
        bad.append(("squeeze-rule4-precondition", n, R, A, B))
    if sq.exit_p >= rs or sq.exit_q >= rs:
        bad.append(("squeeze-exit-bound", n, R, A, B))
    if (sq.exit_p + sq.exit_q) % rs != (sq.entry_p + sq.entry_q) % rs:
        bad.append(("squeeze-residue", n, R, A, B))

    if result.p >= R or result.q >= R:
        bad.append(("final-bound", n, R, A, B))
    if (result.p + result.q) % R != (A * B) % R:
        bad.append(("final-residue", n, R, A, B))


@functools.lru_cache(maxsize=1)
def deep_exhaustive():
    """Every instance with modulus length 3..6, all stage checks on."""
    agg = {"instances": 0, "steps": 0, "violations": [], "squeeze_rules": dict.fromkeys(range(1, 7), 0)}
    for k in range(3, 7):
        for R in range(1 << (k - 1), 1 << k):
            params = precompute(R, k)
            for A in range(R):
                for B in range(R):
                    agg["instances"] += 1
                    _verify_instance_deep(A, B, R, k, params, agg)
    return agg


@functools.lru_cache(maxsize=1)
def full_width_sweep():
    """The exhaustive sweep of k=3..K_MAX at n=k. A hunt tallies exactly as
    it does, so AC4 reads its cycle bound and histogram from it too."""
    return exhaustive_sweep(SweepConfig(k_min=3, k_max=K_MAX, jobs=JOBS))


class TestAcceptance:
    def test_ac1_exhaustive_full_width(self):
        report = full_width_sweep()
        expected = sum(
            R * R for k in range(3, K_MAX + 1) for R in range(1 << (k - 1), 1 << k)
        )
        ok = report.failures_total == 0 and report.instances == expected
        _report(
            "AC1 exhaustive n=k",
            ok,
            f"k=3..{K_MAX}, instances={report.instances}, "
            f"failures={report.failures_total}, exact residues",
        )

    def test_ac2_exhaustive_shift_path(self):
        instances = 0
        failures = 0
        for k in range(3, 6):
            for n in sorted({k + 1, k + 3, 8}):
                for R in range(1 << (k - 1), 1 << k):
                    params = precompute(R, n)
                    for A in range(R):
                        for B in range(R):
                            instances += 1
                            res = mulmod(A, B, R, n, params=params)
                            good = (
                                res.p < R
                                and res.q < R
                                and (res.p + res.q) % R == (A * B) % R
                            )
                            failures += not good
        _report(
            "AC2 shift path n>k",
            failures == 0,
            f"k=3..5 with widened n, instances={instances}, failures={failures}, "
            "low-bit seam checks enforced",
        )

    def test_ac3_known_counterexample(self):
        result = mulmod(63, 121, 173, 8)
        residue = (result.p + result.q) % 173
        expected = ref_mulmod(63, 121, 173)
        ok = result.shrink_cycles == 3 and residue == expected == 11
        _report(
            "AC3 three-cycle instance",
            ok,
            f"(A=63,B=121,R=173,n=8): cycles={result.shrink_cycles}, residue={residue}",
        )

    def test_ac4_cycle_bounds_and_hunt(self):
        report = full_width_sweep()
        hist = {k: v for k, v in sorted(report.cycle_histogram.items()) if v}
        ok = report.failures_total == 0 and report.max_cycles <= 4
        _report(
            "AC4 shrink cycle bounds",
            ok,
            f"max={report.max_cycles}, histogram={hist}, "
            f"four-cycle findings={report.cycle_witnesses_total} (reported, not failed)",
        )

    def test_ac5_loop_predictor_properties(self):
        for bits in itertools.product((0, 1), repeat=7):
            assert set(predict(*bits)) <= {0, 1}
            assert _exclusions_hold(bits[0:3], bits[3:6], bits[6])
        agg = deep_exhaustive()
        step_faults = [v for v in agg["violations"] if v[0] in (
            "predictor", "drop-accounting", "candidate-independence",
            "step-residue", "exclusion-identity",
        )]
        ok = not step_faults
        _report(
            "AC5 predictor properties",
            ok,
            f"128 input combinations plus {agg['steps']} swept steps, "
            f"violations={len(step_faults)}",
        )

    def test_ac6_squeeze_properties(self):
        agg = deep_exhaustive()
        squeeze_faults = [v for v in agg["violations"] if v[0].startswith("squeeze")]
        fired = sum(agg["squeeze_rules"].values())
        ok = not squeeze_faults and fired == agg["instances"]
        _report(
            "AC6 squeeze properties",
            ok,
            f"instances={agg['instances']}, one rule each, rules 4/6 exact-sum, "
            f"exits bounded, violations={len(squeeze_faults)}",
        )

    def test_ac7_randomized_large_widths(self):
        lines = []
        ok = True
        for n, seed in ((64, 101), (256, 102), (1024, 103)):
            report = random_sweep(
                SweepConfig(n=n, count=10_000, seed=seed, jobs=JOBS)
            )
            ok = ok and report.failures_total == 0 and report.instances == 10_000
            lines.append(f"n={n}: {report.instances} instances, "
                         f"{report.failures_total} failures")
        _report("AC7 randomized large widths", ok, "; ".join(lines))

    def test_ac8_sum_rewrite_identities(self):
        checked = 0
        ok = True
        for width in (8, 64, 256):
            rng = random.Random(0xACC8 + width)
            wide = (2 << width) - 1  # one bit of headroom: the adder drops nothing
            for _ in range(100_000):
                x = rng.getrandbits(width)
                y = rng.getrandbits(width)
                z = rng.getrandbits(width)
                two = x + y
                three = two + z
                ok = ok and two == (x ^ y) + 2 * (x & y)
                ok = ok and two == (x | y) + (x & y)
                ok = ok and two == sum(top_up(x, y, z))  # z as treated positions
                ok = ok and three == (x | y | z) + maj2of3(x, y, z) + (x & y & z)
                ok = ok and three == (x ^ y ^ z) + 2 * maj2of3(x, y, z)
                ok = ok and three == sum(csa(x, y, z, wide))
                checked += 1
                if not ok:
                    break
        _report(
            "AC8 sum rewrite identities",
            ok,
            f"{checked} random triples across widths 8/64/256, exact equality "
            "through maj2of3, csa and top_up",
        )

    def test_ac9_report_determinism(self):
        base = SweepConfig(k_min=3, k_max=4)
        exhaustive_payloads = {
            exhaustive_sweep(SweepConfig(k_min=3, k_max=4, jobs=j)).to_json_bytes()
            for j in (1, 2)
        } | {exhaustive_sweep(base).to_json_bytes()}
        random_payloads = {
            random_sweep(SweepConfig(n=64, count=400, seed=11, jobs=j)).to_json_bytes()
            for j in (1, 3, 1)
        }
        ok = len(exhaustive_payloads) == 1 and len(random_payloads) == 1
        _report(
            "AC9 determinism",
            ok,
            "byte-identical reports across repeats and parallelism degrees",
        )
