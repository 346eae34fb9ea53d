import random

import pytest

from csmulmod import (
    InvariantViolation,
    SweepConfig,
    exhaustive_mismatches,
    exhaustive_sweep,
    fold_pair,
    oracle,
    precompute,
    ref_mulmod,
    replay_step_wide,
)
from csmulmod.mainloop import predict


def ref_mulmod_by_addition(A: int, B: int, R: int) -> int:
    """Second opinion on ref_mulmod: accumulate B repeatedly, A times.

    Structurally different from multiplication followed by division, so
    the two implementations cross-check each other.
    """
    b = B
    while b >= R:
        b -= R
    acc = 0
    for _ in range(A):
        acc += b
        if acc >= R:
            acc -= R
    return acc


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


def pack(values, width):
    """``values`` as one int, value i in field i of ``width`` bytes, least
    significant byte first."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


class TestExhaustiveMismatches:
    def test_flags_exactly_the_wrong_lanes(self):
        R = 7
        # a correct split of each residue, lane A*R + B, in 1-byte fields
        p = [(A * B) % R // 2 for A in range(R) for B in range(R)]
        q = [(A * B) % R - p[A * R + B] for A in range(R) for B in range(R)]
        Q = pack(q, 1)
        assert exhaustive_mismatches(pack(p, 1), Q, [R]) == []
        wrong = list(p)
        wrong[3 * R + 5] = (wrong[3 * R + 5] + 1) % R  # wrong residue
        wrong[4 * R + 2] += R  # right residue, entry not below R
        wrong[6 * R + 6] = R - 1  # wrong residue in the last lane
        W = pack(wrong, 1)
        assert exhaustive_mismatches(W, Q, [R]) == [3 * R + 5, 4 * R + 2, 6 * R + 6]
        assert exhaustive_mismatches(Q, W, [R]) == [3 * R + 5, 4 * R + 2, 6 * R + 6]


def split_residues(R):
    """Per lane A*R + B, a pair (p, q) below R congruent to (A*B) mod R,
    split so that p + q reaches R on some lanes and not on others."""
    p, q = [], []
    for A in range(R):
        for B in range(R):
            p.append((A + B) % R)
            q.append((A * B - p[-1]) % R)
    return p, q


def per_lane_mismatches(p, q, R):
    """The lanes a per-lane fold_pair/ref_mulmod check rejects."""
    return [
        i
        for i in range(R * R)
        if not (p[i] < R and q[i] < R) or fold_pair(p[i], q[i], R) != ref_mulmod(*divmod(i, R), R)
    ]


# (R, field bytes) as the sliced kernel packs k+1 planes: 1-byte fields of
# k=3, k=6 and k=7 (R=64 and R=127), and 2-byte fields of k=8 (R=128 would
# also meet R <= 2**(F-1) with F=8, but its 9-bit entries need 16)
LANE_LAYOUTS = [(5, 1), (63, 1), (64, 1), (127, 1), (128, 2), (200, 2)]
# 2-byte fields whose residues reach 256 and more, so that the second byte
# of an expected field is not always 0 (R=511 has 261,121 lanes: too many
# for the corruption loops over LANE_LAYOUTS)
WIDE_RESIDUES = [(257, 2), (511, 2)]


def corrupt_positions(R):
    """Lane 0, the two edges (B=0, B=R-1) of a middle row, a middle lane of
    the top row, and the last lane R*R-1."""
    mid = R // 2
    return [0, mid * R, mid * R + R - 1, (R - 1) * R + mid, R * R - 1]


def corruptions(value, R):
    """Wrong values for one field: at least R with the residue kept, the
    register maximum 2**(k+1) - 1, the register's top bit k set (in the
    second byte of a field at k=8), and below R with the residue moved."""
    return {
        "ge_r_same_residue": value + R,
        "register_max": (1 << (R.bit_length() + 1)) - 1,
        "top_bit": value | 1 << R.bit_length(),
        "residue_off_by_one": (value + 1) % R,
    }


class TestPackedCheck:
    @pytest.mark.parametrize("R, width", LANE_LAYOUTS + WIDE_RESIDUES)
    def test_clean_run_passes_on_packed_fields(self, R, width):
        p, q = split_residues(R)
        assert any(a + b >= R for a, b in zip(p, q))
        assert oracle._fields_agree(pack(p, width), pack(q, width), [R], width)
        assert exhaustive_mismatches(pack(p, width), pack(q, width), [R]) == []
        # lanes past R*R are not part of the run
        assert exhaustive_mismatches(pack(p + [R], width), pack(q + [0], width), [R]) == []

    @pytest.mark.parametrize("R, width", WIDE_RESIDUES)
    def test_corrupted_field_above_255_is_its_lane(self, R, width):
        # lane (1, 2) holds p = 3; 259 is below R and differs from it in
        # the second byte only
        p, q = split_residues(R)
        lane = 1 * R + 2
        p[lane] += 256
        assert p[lane] == 259 and per_lane_mismatches(p, q, R) == [lane]
        P, Q = pack(p, width), pack(q, width)
        assert not oracle._fields_agree(P, Q, [R], width)
        assert exhaustive_mismatches(P, Q, [R]) == [lane]

    @pytest.mark.parametrize("R, width", LANE_LAYOUTS)
    def test_single_corrupted_fields(self, R, width):
        clean_p, clean_q = split_residues(R)
        for lane in corrupt_positions(R):
            for side in (0, 1):
                for kind, value in corruptions((clean_p, clean_q)[side][lane], R).items():
                    pair = [list(clean_p), list(clean_q)]
                    pair[side][lane] = value
                    want = per_lane_mismatches(*pair, R)
                    assert want == [lane], (R, lane, side, kind)
                    packed = [pack(values, width) for values in pair]
                    assert exhaustive_mismatches(*packed, [R]) == want, (R, lane, side, kind)

    @pytest.mark.parametrize("R, width", LANE_LAYOUTS)
    def test_many_corrupted_fields_in_lane_order(self, R, width):
        p, q = split_residues(R)
        for lane, kind in zip(corrupt_positions(R), ("ge_r_same_residue", "register_max") * 3):
            values = p if lane % 2 else q
            values[lane] = corruptions(values[lane], R)[kind]
        want = per_lane_mismatches(p, q, R)
        assert want == sorted(set(corrupt_positions(R)))
        assert exhaustive_mismatches(pack(p, width), pack(q, width), [R]) == want


# (moduli, field bytes) of batches: every modulus of k=3, four of k=7 in
# 1-byte fields, and R=128 and 129 in 2-byte fields (a sweep runs those
# two alone: together they exceed its lane budget)
BATCHES = [((4, 5, 6, 7), 1), ((64, 65, 100, 127), 1), ((128, 129), 2)]


def split_batch(moduli):
    """``split_residues`` of each modulus, one segment after another; and
    where each segment starts."""
    p, q, starts = [], [], []
    for R in moduli:
        starts.append(len(p))
        p_R, q_R = split_residues(R)
        p += p_R
        q += q_R
    return p, q, starts


def batch_mismatches(p, q, moduli):
    """The batch lanes a per-lane check with each segment's R rejects."""
    bad, offset = [], 0
    for R in moduli:
        size = R * R
        bad += [offset + lane for lane in per_lane_mismatches(p[offset:], q[offset:], R)]
        offset += size
    return bad


class TestExpected:
    # 2-byte fields from R=128 on; moduli above 256 and 512 give the
    # second byte of the ramp more than one value; width 3 reads a third,
    # zero, byte off a run longer than the ramp
    @pytest.mark.parametrize(
        "moduli, width",
        [
            ([4], 1),
            ([4, 5, 6, 7], 1),
            ([64, 65, 127], 1),
            ([4, 128], 2),
            ([255, 256, 257], 2),
            ([300, 700], 2),
            ([5, 300], 3),
        ],
    )
    def test_equals_the_packed_products(self, moduli, width):
        products = (
            (A * B % R).to_bytes(width, "little")
            for R in moduli
            for A in range(R)
            for B in range(R)
        )
        assert oracle._expected(moduli, width) == b"".join(products)


class TestBatchCheck:
    @pytest.mark.parametrize("moduli, width", BATCHES)
    def test_clean_batch_passes(self, moduli, width):
        p, q, _ = split_batch(moduli)
        # in one pass: a batch that passes is never checked modulus by modulus
        assert oracle._fields_agree(pack(p, width), pack(q, width), moduli, width)
        assert exhaustive_mismatches(pack(p, width), pack(q, width), moduli) == []
        # lanes past the last segment are not part of the run
        P, Q = pack(p + [255], width), pack(q + [255], width)
        assert exhaustive_mismatches(P, Q, moduli) == []

    @pytest.mark.parametrize("moduli, width", BATCHES)
    def test_failing_batch_ignores_a_field_past_its_last_segment(self, moduli, width):
        # the search of a batch that fails stops at its last segment too:
        # only the real bad lane is reported, not the stray field after it
        p, q, starts = split_batch(moduli)
        bad = starts[-1] + 1
        p[bad] += moduli[-1]
        P, Q = pack(p + [255], width), pack(q + [255], width)
        assert not oracle._fields_agree(P, Q, moduli, width)
        assert exhaustive_mismatches(P, Q, moduli) == [bad]

    @pytest.mark.parametrize("moduli, width", BATCHES)
    def test_entry_below_a_larger_neighbours_modulus_is_rejected(self, moduli, width):
        # each field is checked against its own segment's R: an entry at
        # least R in the segment of R fails at its lane and nowhere else,
        # also where a later segment's R would allow it
        p, q, starts = split_batch(moduli)
        for R, start in zip(moduli[:-1], starts):
            for lane in (start, start + R * R - 1):
                for side in (p, q):
                    kept = side[lane]
                    for value in (R, kept + R, moduli[-1] - 1):
                        side[lane] = value
                        want = batch_mismatches(p, q, moduli)
                        assert want == [lane], (moduli, R, lane, value)
                        P, Q = pack(p, width), pack(q, width)
                        assert not oracle._fields_agree(P, Q, moduli, width)
                        assert exhaustive_mismatches(P, Q, moduli) == want, (moduli, R, lane, value)
                    side[lane] = kept

    @pytest.mark.parametrize("moduli, width", BATCHES)
    def test_mismatches_in_several_moduli_in_lane_order(self, moduli, width):
        p, q, starts = split_batch(moduli)
        for R, start in zip(moduli, starts):
            for lane, kind in zip(corrupt_positions(R), ("residue_off_by_one", "top_bit") * 3):
                values = p if lane % 2 else q
                values[start + lane] = corruptions(values[start + lane], R)[kind]
        want = batch_mismatches(p, q, moduli)
        assert want == sorted(
            start + lane for R, start in zip(moduli, starts) for lane in set(corrupt_positions(R))
        )
        assert exhaustive_mismatches(pack(p, width), pack(q, width), moduli) == want

    def test_one_width_in_two_byte_fields_for_the_whole_batch(self):
        # the width follows the batch's largest modulus: R=128 needs 9-bit
        # entries, so even a batch holding R=4 packs 2-byte fields
        p, q, starts = split_batch((4, 128))
        assert oracle._fields_agree(pack(p, 2), pack(q, 2), [4, 128], 2)
        assert exhaustive_mismatches(pack(p, 2), pack(q, 2), [4, 128]) == []
        p[starts[1] - 1] += 4
        assert exhaustive_mismatches(pack(p, 2), pack(q, 2), [4, 128]) == [starts[1] - 1]


def zero_top_byte_of_one_field(monkeypatch):
    """Make ``oracle._expected`` zero the top byte of its first field
    where that byte is set (byte 1 of a 2-byte field): the packed check
    then fails a clean batch although every lane passes."""
    real = oracle._expected

    def mutant(moduli, width):
        table = bytearray(real(moduli, width))
        table[next(i for i in range(width - 1, len(table), width) if table[i])] = 0
        return bytes(table)

    monkeypatch.setattr(oracle, "_expected", mutant)


class TestPackedCheckFault:
    # the 1-byte BATCHES, and R=257, whose residues of 256 set byte 1 of a
    # 2-byte field (no residue of R=128 or 129 does)
    @pytest.mark.parametrize("moduli, width", BATCHES[:2] + [((257,), 2)])
    def test_failed_check_with_no_bad_lane_raises(self, monkeypatch, moduli, width):
        p, q, _ = split_batch(moduli)
        P, Q = pack(p, width), pack(q, width)
        assert exhaustive_mismatches(P, Q, moduli) == []
        zero_top_byte_of_one_field(monkeypatch)
        with pytest.raises(InvariantViolation, match="no lane fails"):
            exhaustive_mismatches(P, Q, moduli)

    def test_sweep_reports_the_fault_as_failures(self, monkeypatch):
        zero_top_byte_of_one_field(monkeypatch)
        report = exhaustive_sweep(SweepConfig(k_min=3, k_max=4))
        assert not report.ok()
        assert report.failures_total == report.instances == sum(R * R for R in range(4, 16))
        assert report.failures and all(
            f["reason"].startswith("InvariantViolation: oracle packed check failed")
            for f in report.failures
        )


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
            f0, f1 = predict(
                (p >> n) & 1, (p >> (n - 1)) & 1, (p >> (n - 2)) & 1,
                (q >> n) & 1, (q >> (n - 1)) & 1, (q >> (n - 2)) & 1,
                a_i & ((b >> (n - 1)) & 1),
            )
            drops = replay_step_wide(p, q, a_i, b, params.rx, n)
            assert set(drops) == {f0 << (n + 1) | f1 << (n + 2)}
