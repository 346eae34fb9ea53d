"""The bit-sliced kernel against the scalar kernel, lane by lane.

Exhaustive sweeps run only the sliced kernel, so these tests are what
still compares every instance of the small widths with ``mulmod_checked``.
"""

import hashlib
import itertools
import os
import random

import pytest

from csmulmod import (
    InvariantViolation,
    SweepConfig,
    SweepReport,
    exhaustive_mismatches,
    exhaustive_sweep,
    harness,
    hunt_shrink_cycles,
    mulmod_checked,
    precompute,
    random_sweep,
)
from csmulmod import sliced
from csmulmod.mainloop import Accumulator
from csmulmod.harness import HIST_BUCKETS
from csmulmod.modparams import check_low_bits, shift_right_result
from csmulmod.oracle import field_bytes
from csmulmod.shrink import NORMAL_CYCLE_CAP, run_shrink
from csmulmod.sliced import SlicedRun, run_moduli, unslice
from csmulmod.squeeze import qcu_apply, squeeze_topup

# (n, R) for every modulus of k=3..6 at n=k, and of k=3..5 at n=8
FULL_WIDTH = [(k, R) for k in range(3, 7) for R in range(1 << (k - 1), 1 << k)]
SHIFT_PATH = [(8, R) for k in range(3, 6) for R in range(1 << (k - 1), 1 << k)]


def unpack(packed, lanes, width):
    """Per lane i, field i (``width`` bytes, least significant first) of a
    packed int; a set bit past the last field raises."""
    data = packed.to_bytes(width * lanes, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def lane_values(planes, lanes):
    """Per lane, its value in ``planes`` as ``unslice`` packs it: bits
    rounded up to whole bytes."""
    return unpack(unslice(planes, lanes), lanes, -(-len(planes) // 8))


def one_hot(masks, lanes):
    """Per lane, the index of the one mask holding it (-1 for none)."""
    return [v.bit_length() - 1 for v in lane_values(masks, lanes)]


def sliced_lanes(n, R):
    """Per lane (p, q, shrink cycles, squeeze rule, ok) from the sliced run."""
    run = run_moduli([precompute(R, n)])
    lanes = R * R
    bad = set(exhaustive_mismatches(run.p, run.q, [R]))
    width = R.bit_length() // 8 + 1  # k+1 bits in whole bytes
    p, q = unpack(run.p, lanes, width), unpack(run.q, lanes, width)
    flagged = lane_values([run.flagged], lanes)
    cycles = one_hot(run.cycles, lanes)
    rules = one_hot(run.rules, lanes)
    return [
        (p[i], q[i], cycles[i], rules[i] + 1, not flagged[i] and i not in bad)
        for i in range(lanes)
    ]


def cut_segments(run, batch):
    """A batch's run cut into one ``SlicedRun`` per modulus: its segment
    of every mask and output shifted down to lane 0."""
    field = 8 * field_bytes(batch[0].k + 1)
    runs, offset = [], 0
    for params in batch:
        size = params.modulus**2

        def cut(packed, bits=1):
            return (packed >> offset * bits) & ((1 << size * bits) - 1)

        runs.append(
            SlicedRun(
                flagged=cut(run.flagged),
                cycles=tuple(map(cut, run.cycles)),
                rules=tuple(map(cut, run.rules)),
                p=cut(run.p, field),
                q=cut(run.q, field),
            )
        )
        offset += size
    return runs


def scalar_lanes(n, R):
    params = precompute(R, n)
    out = []
    for A in range(R):
        for B in range(R):
            result, ok = mulmod_checked(A, B, R, n, params=params)
            out.append((result.p, result.q, result.shrink_cycles, result.squeeze_rule, ok))
    return out


def by_width(moduli):
    """(n, [R, ...]) for each run of ``moduli``, (n, R) pairs, of one width
    (k, n): the batches a sweep would make with no lane budget."""
    groups = itertools.groupby(moduli, lambda m: (m[0], m[1].bit_length()))
    return [(n, [R for _, R in group]) for (n, _), group in groups]


def tallies(moduli, tamper=lambda params: params):
    """One report over the moduli from ``add_moduli``, a batch per run of
    one width, and one from ``add`` over every instance of them, with the
    constant sets tampered; a tamper that returns a str stands for a
    precompute that failed with that reason."""
    sliced, scalar = SweepReport(), SweepReport()
    for n, group in by_width(moduli):
        batch = [(R, tamper(precompute(R, n))) for R in group]
        sliced.add_moduli(n, batch)
        for R, params in batch:
            for A in range(R):
                for B in range(R):
                    scalar.add(n, R, A, B, params)
    return sliced, scalar


def assert_same_tally(sliced, scalar):
    assert sliced.to_json_bytes() == scalar.to_json_bytes()


def test_every_lane_matches_the_scalar_kernel():
    mismatched = [
        (n, R)
        for n, R in FULL_WIDTH + SHIFT_PATH
        if sliced_lanes(n, R) != scalar_lanes(n, R)
    ]
    assert mismatched == []


def test_shard_equals_the_scalar_tally():
    for n, R in FULL_WIDTH + SHIFT_PATH:
        shard = harness._run_batch_task((n, [R]))
        assert_same_tally(shard, tallies([(n, R)])[1])


# Each breaks the constant set so that failures of the named kind occur.
TAMPERS = {
    "residue mismatch": lambda p: p._replace(
        rn=(p.rn + (1 << p.shift)) & (p.mask >> 1)
    ),
    "InvariantViolation: nonzero low bits after main loop": lambda p: p._replace(
        rx=(0, p.rx[1], p.rx[2] ^ 1, p.rx[3])
    ),
    "InvariantViolation: squeeze exit above the shifted modulus": lambda p: p._replace(
        modulus_shifted=p.modulus_shifted - 3
    ),
    "InvariantViolation: shrink needed more than": lambda p: p._replace(
        rn=p.mask >> 1
    ),
    "InvariantViolation: adder lost a bit outside rule 1": lambda p: p._replace(
        rn=1 << p.n
    ),
    "InvariantViolation: nonzero low bits after squeeze": lambda p: p._replace(
        rm=p.rm ^ 3
    ),
    # flips a low bit on the shift path only (at n=k, 1 >> 1 is 0)
    "InvariantViolation: nonzero low bits after shrink": lambda p: p._replace(
        rn=p.rn ^ ((1 << p.shift) >> 1)
    ),
    # raises the bound past every output and lets rule 3 add R*2**shift too
    # much, so that outputs reach R without an invariant breach
    "output not below modulus": lambda p: p._replace(
        modulus_shifted=p.mask, rm=(p.rm + p.modulus_shifted) & (p.mask >> 1)
    ),
}
# k=3..4 at n=k, and at n=7 for the shift path
TAMPERED = [(k, R) for k in (3, 4) for R in range(1 << (k - 1), 1 << k)] + [
    (7, R) for R in range(4, 16)
]


def scalar_raises(n, R, params):
    """Per lane, the message ``mulmod_checked`` raises with, or None."""
    out = []
    for A in range(R):
        for B in range(R):
            try:
                mulmod_checked(A, B, R, n, params=params)
            except InvariantViolation as exc:
                out.append(str(exc))
            else:
                out.append(None)
    return out


@pytest.mark.parametrize("reason", TAMPERS)
def test_failures_are_recorded_as_the_scalar_kernel_records_them(reason):
    for n, R in TAMPERED:
        params = TAMPERS[reason](precompute(R, n))
        # a lane is flagged exactly when the scalar kernel raises on it
        flagged = lane_values([run_moduli([params]).flagged], R * R)
        raised = scalar_raises(n, R, params)
        mismatched = [
            (n, R, lane, message)
            for lane, (bit, message) in enumerate(zip(flagged, raised))
            if bool(bit) != (message is not None)
        ]
        assert mismatched == []
    # witnesses, failures and their caps run on across moduli as in a shard
    # that held them all
    sliced, scalar = tallies(TAMPERED, TAMPERS[reason])
    assert_same_tally(sliced, scalar)
    assert any(failure["reason"].startswith(reason) for failure in sliced.failures)



@pytest.mark.parametrize("reason", TAMPERS)
def test_only_instances_that_raise_nothing_fill_a_bucket(reason):
    # an instance fills one cycle bucket and one rule count unless the
    # kernel raises on it (a flagged lane), so a fifth cycle never reaches
    # a bucket past the cap
    flagged = sum(
        run_moduli([TAMPERS[reason](precompute(R, n))]).flagged.bit_count()
        for n, R in TAMPERED
    )
    report, _ = tallies(TAMPERED, TAMPERS[reason])
    assert report.instances == sum(R * R for _, R in TAMPERED)
    filled = report.instances - flagged
    assert sum(report.cycle_histogram.values()) == sum(report.rule_usage.values()) == filled
    assert [report.cycle_histogram[c] for c in range(NORMAL_CYCLE_CAP + 1, HIST_BUCKETS)] == [
        0
    ] * (HIST_BUCKETS - NORMAL_CYCLE_CAP - 1)
    assert flagged <= report.failures_total

def test_batch_equals_its_moduli_run_alone():
    for n, moduli in by_width(FULL_WIDTH + SHIFT_PATH):
        batch = [precompute(R, n) for R in moduli]
        for params, run in zip(batch, cut_segments(run_moduli(batch), batch)):
            alone = run_moduli([params])
            assert run == alone, (n, params.modulus)
    with pytest.raises(ValueError, match="one width"):
        run_moduli([precompute(7, 3), precompute(8, 4)])


@pytest.mark.parametrize("reason", TAMPERS)
def test_constants_tampered_in_one_modulus_stay_in_its_segment(reason):
    failures = 0
    for n, moduli in by_width(TAMPERED):
        # not first or last, and with r_bit 0 so that rule 3 reads rm
        middle = moduli[len(moduli) // 2 - 1]

        def tamper(params):
            return TAMPERS[reason](params) if params.modulus == middle else params

        batch = [tamper(precompute(R, n)) for R in moduli]
        segments = cut_segments(run_moduli(batch), batch)
        for params, run in zip(batch, segments):
            alone = run_moduli([params])
            assert run == alone, (n, params.modulus)
            assert not run.flagged or params.modulus == middle
        sliced, scalar = tallies([(n, R) for R in moduli], tamper)
        assert_same_tally(sliced, scalar)
        assert {failure["r"] for failure in sliced.failures} <= {format(middle, "X")}
        failures += sliced.failures_total
    assert failures


@pytest.mark.parametrize("reason", TAMPERS)
def test_failed_precompute_keeps_its_place_between_tampered_neighbours(reason):
    fault = "ValueError: synthetic fault"
    neighbour_failures = 0
    for n, moduli in by_width(TAMPERED):
        # a middle modulus whose precompute failed, between tampered
        # neighbours: their failures come on either side of its own
        i = len(moduli) // 2
        middle, neighbours = moduli[i], {moduli[i - 1], moduli[i + 1]}

        def tamper(params):
            if params.modulus == middle:
                return fault
            return TAMPERS[reason](params) if params.modulus in neighbours else params

        sliced, scalar = tallies([(n, R) for R in moduli], tamper)
        assert_same_tally(sliced, scalar)
        order = [int(failure["r"], 16) for failure in sliced.failures]
        assert order == sorted(order)
        if moduli[0] == 4:
            # R=5's 25 lanes cannot fill the cap before R=6's turn
            faulty = [failure["r"] for failure in sliced.failures if failure["reason"] == fault]
            assert faulty == ["6"] * 36
        neighbour_failures += sliced.failures_total - middle * middle
    assert neighbour_failures


def naive_planes(values, planes):
    """Plane j of per-lane ``values``, one lane at a time."""
    return [
        int("".join(str(v >> j & 1) for v in reversed(values)), 2)
        for j in range(planes)
    ]


# lanes around a 64-bit word (eight lanes of eight planes) and one full
# batch; planes around a group of eight, and up to 1,025 planes: the
# registers of a sliced n=1024 random sweep
@pytest.mark.parametrize(
    "lanes, planes",
    [
        *itertools.product(
            (1, 7, 8, 9, 63, 64, 65, 301, harness.BATCH_LANES), (1, 7, 8, 9, 16, 17, 65)
        ),
        (301, 40),
        (301, 1025),
    ],
)
def test_unslice_round_trip(lanes, planes):
    rng = random.Random(lanes * 2048 + planes)
    values = [rng.getrandbits(planes) for _ in range(lanes)]
    assert lane_values(naive_planes(values, planes), lanes) == values


@pytest.mark.parametrize("lanes", (9, 301))
def test_unslice_rejects_a_plane_that_is_not_a_lane_mask(lanes):
    ones = (1 << lanes) - 1
    with pytest.raises(ValueError, match="plane 1 "):
        unslice([ones, -1], lanes)
    with pytest.raises(ValueError, match="plane 2 "):
        unslice([ones, 0, 1 << lanes], lanes)
    assert unslice([ones], lanes) == int.from_bytes(b"\1" * lanes, "little")


def test_two_byte_fields_of_k8():
    # k=8 is the first width whose k+1-bit outputs need 2-byte fields; a
    # batch of two holds each modulus's fields in its segment
    batch = [precompute(R, 8) for R in (128, 255)]
    whole = run_moduli(batch)
    assert whole.flagged == 0
    assert exhaustive_mismatches(whole.p, whole.q, [128, 255]) == []
    for params, run in zip(batch, cut_segments(whole, batch)):
        R = params.modulus
        lanes = R * R
        assert run == run_moduli([params]), R
        assert exhaustive_mismatches(run.p, run.q, [R]) == []
        p, q = unpack(run.p, lanes, 2), unpack(run.q, lanes, 2)
        for lane in random.Random(R).sample(range(lanes), 40):
            result, ok = mulmod_checked(*divmod(lane, R), R, 8)
            assert ok and (p[lane], q[lane]) == (result.p, result.q), (R, lane)


def test_k8_report_bytes():
    # every k=8 modulus runs alone in 2-byte fields, whose second byte is
    # a transpose group of one plane; the golden digests stop at k=6
    report = exhaustive_sweep(SweepConfig(k_min=8, k_max=8, jobs=1))
    digest = hashlib.sha256(report.to_json_bytes()).hexdigest()
    assert digest == "662b2d0c1bed888a89c6615ed36b4c2f7785b059e25cc17f34e51ba87ff16fa8"


@pytest.mark.skipif(
    not os.environ.get("CSMULMOD_NIGHTLY"), reason="nightly width: set CSMULMOD_NIGHTLY=1"
)
def test_k9_report_bytes():
    # k=9 is the narrowest width whose outputs reach the second byte of a
    # field (39,048,576 instances, a few seconds in-process)
    report = exhaustive_sweep(SweepConfig(k_min=9, k_max=9, jobs=1))
    digest = hashlib.sha256(report.to_json_bytes()).hexdigest()
    assert digest == "51ec3d356aa412a73d2a9b5cd55cecfaa3052d8fcd37e5a4301fa7b53b370e9f"


def test_k7_report_bytes():
    # k=7 is the widest width whose batches hold several moduli (2 to 8)
    config = SweepConfig(k_min=7, k_max=7, jobs=1)
    digests = [
        hashlib.sha256(sweep(config).to_json_bytes()).hexdigest()
        for sweep in (exhaustive_sweep, hunt_shrink_cycles)
    ]
    assert digests == [
        "401526c625228e5b271e6a672fecd4718018148030933ab6c3124758dbcd1f84",
        "3f2944845117d780d98b466bcd9ba8c098de238295a164552f1d81f9e65ec3e5",
    ]


def test_a_fifth_shrink_cycle_is_flagged():
    # under the cycle tamper, R=15 at n=4 fails only by needing a fifth
    # shrink cycle; those lanes are flagged and in no cycle count
    n, R = 4, 15
    params = TAMPERS["InvariantViolation: shrink needed more than"](precompute(R, n))
    run = run_moduli([params])
    assert len(run.cycles) == NORMAL_CYCLE_CAP + 1
    raised = scalar_raises(n, R, params)
    fifth = [message is not None for message in raised]
    assert sum(fifth) == 51
    assert {message.split(" (")[0] for message in raised if message} == {
        "shrink needed more than 4 cycles"
    }
    assert [bool(bit) for bit in lane_values([run.flagged], R * R)] == fifth
    assert [count == -1 for count in one_hot(run.cycles, R * R)] == fifth


@pytest.mark.parametrize("reason", TAMPERS)
def test_hunt_and_verify_reports_differ_only_in_mode(reason, monkeypatch):
    inner = harness.precompute
    monkeypatch.setattr(harness, "precompute", lambda R, n: TAMPERS[reason](inner(R, n)))
    failures = 0
    # the moduli of TAMPERED: k=3..4 at n=k and at n=7
    for config in (SweepConfig(k_min=3, k_max=4), SweepConfig(k_min=3, k_max=4, n=7)):
        verify, hunt = (
            sweep(config).to_json_dict() for sweep in (exhaustive_sweep, hunt_shrink_cycles)
        )
        modes = verify["header"]["config"].pop("mode"), hunt["header"]["config"].pop("mode")
        assert modes == ("verify", "hunt")
        assert verify == hunt
        failures += verify["body"]["totals"]["failures"]
    assert failures



K4 = SweepConfig(k_min=4, k_max=4)


@pytest.mark.parametrize(
    "sweep, config",
    (
        (exhaustive_sweep, K4),
        (hunt_shrink_cycles, K4),
        # seed 19 draws 6 of the 1,000 instances from the three below
        (random_sweep, SweepConfig(n=4, count=1000, seed=19, k_min=4, k_max=4)),
    ),
    ids=("verify", "hunt", "random"),
)
def test_every_mode_lists_the_instances_that_needed_four_cycles(sweep, config, monkeypatch):
    # under the cycle tamper three k=4 instances need exactly 4 shrink
    # cycles and pass; every sweep lists each one it runs
    inner = harness.precompute
    tamper = TAMPERS["InvariantViolation: shrink needed more than"]
    monkeypatch.setattr(harness, "precompute", lambda R, n: tamper(inner(R, n)))
    four = [("D", "7", "7"), ("F", "B", "D"), ("F", "D", "B")]
    report = sweep(config)
    listed = [(w["r"], w["a"], w["b"]) for w in report.cycle_witnesses]
    assert {w["cycles"] for w in report.cycle_witnesses} == {NORMAL_CYCLE_CAP}
    assert report.cycle_witnesses_total == len(listed) == report.cycle_histogram[4]
    if sweep is random_sweep:
        assert len(listed) == 6 and set(listed) <= set(four)
    else:
        assert listed == four
    assert report.max_cycles == NORMAL_CYCLE_CAP and not report.ok()

def scalar_reduction(p, q, params):
    """(shrink cycles, squeeze rule, p, q) of shrink then squeeze from the
    entry pair (p, q), with ``pipeline.mulmod``'s seam checks from the
    loop's on; None where one of them or a stage raises."""
    try:
        check_low_bits(p, q, params, "main loop")
        acc, shrink = run_shrink(Accumulator(p, q, params.n), params)
        check_low_bits(acc.p, acc.q, params, "shrink")
        acc, squeeze = qcu_apply(squeeze_topup(acc), params)
        if max(acc.p, acc.q) >= params.modulus_shifted:
            return None
        shift_right_result(acc.p, acc.q, params)
    except InvariantViolation:
        return None
    return shrink.cycles, squeeze.rule, acc.p, acc.q


@pytest.mark.parametrize("n, k", ((4, 4), (5, 5), (6, 4)))
def test_reduction_stages_match_the_scalar_ones_on_every_entry_pair(n, k):
    # Every (n+1)-bit entry pair of every modulus of length k, most of them
    # states the loop never leaves, through _shrink then _squeeze with the
    # seam checks of run_moduli around them
    batch = [precompute(R, n) for R in range(1 << (k - 1), 1 << k)]
    width, shift = n + 1, n - k
    size = 1 << 2 * width
    lanes = size * len(batch)
    ones = (1 << lanes) - 1
    segments = [((1 << size) - 1) << m * size for m in range(len(batch))]

    def planes(values):
        return sliced._constant_planes(values, segments, width)

    # lane i of a segment enters with p = i >> width and q = i % 2**width
    p = [sliced._alternating(1 << width + j, lanes) for j in range(width)]
    q = [sliced._alternating(1 << j, lanes) for j in range(width)]
    rn = planes([params.rn for params in batch])
    rx1 = planes([params.rx[1] for params in batch])
    flagged = sliced._low_bits(p, q, shift)
    shrunk, cycles, p, q = sliced._shrink(p, q, rx1, rn, ones)
    flagged |= shrunk | sliced._low_bits(p, q, shift)
    r_bit = sum(seg for params, seg in zip(batch, segments) if params.r_bit)
    rm = planes([params.rm for params in batch])
    squeezed, rules, p, q = sliced._squeeze(p, q, rn, rm, r_bit, ones)
    bound = planes([params.modulus_shifted for params in batch])
    flagged |= squeezed | (ones & ~(sliced._below(p, bound, ones) & sliced._below(q, bound, ones)))
    flagged |= sliced._low_bits(p, q, shift)

    got = zip(
        lane_values([flagged], lanes),
        one_hot(cycles, lanes),
        one_hot(rules, lanes),
        lane_values(p, lanes),
        lane_values(q, lanes),
    )
    mismatched = []
    for lane, (flag, *outcome) in enumerate(got):
        params, entry = batch[lane // size], lane % size
        expected = scalar_reduction(entry >> width, entry % (1 << width), params)
        outcome[1] += 1
        if (flag, expected) != (0, tuple(outcome)) and not (flag and expected is None):
            mismatched.append((params.modulus, entry, flag, outcome, expected))
    assert mismatched == []
    # at n = k no entry pair breaks a check; on the shift path, those with
    # a set low bit do
    assert (flagged == 0) == (n == k)
