"""The bit-sliced kernel against the scalar kernel, lane by lane.

Exhaustive sweeps run only the sliced kernel, so these tests are what
still compares every instance of the small widths with ``mulmod_checked``.
"""

import collections
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
    oracle,
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
    # lets rule 3 add R*2**shift too much, so that exits with clear low
    # bits reach R
    "InvariantViolation: squeeze exit not below the modulus": lambda p: p._replace(
        rm=(p.rm + (p.modulus << p.shift)) & (p.mask >> 1)
    ),
}
# k=3..4 at n=k, and at n=7 for the shift path
TAMPERED = [(k, R) for k in (3, 4) for R in range(1 << (k - 1), 1 << k)] + [
    (7, R) for R in range(4, 16)
]


def scalar_outcomes(n, R, params):
    """Per lane, (the message ``mulmod_checked`` raises with or None, the
    ``ok`` it returns or False)."""
    out = []
    for A in range(R):
        for B in range(R):
            try:
                _, ok = mulmod_checked(A, B, R, n, params=params)
            except InvariantViolation as exc:
                out.append((str(exc), False))
            else:
                out.append((None, ok))
    return out


def scalar_raises(n, R, params):
    """Per lane, the message ``mulmod_checked`` raises with, or None."""
    return [message for message, _ in scalar_outcomes(n, R, params)]


@pytest.mark.parametrize("reason", TAMPERS)
def test_failures_are_recorded_as_the_scalar_kernel_records_them(reason):
    for n, R in TAMPERED:
        params = TAMPERS[reason](precompute(R, n))
        run = run_moduli([params])
        rejected = set(exhaustive_mismatches(run.p, run.q, [R]))
        # a lane is flagged or rejected by the oracle exactly when the
        # scalar kernel raises on it or returns ok=False, and a flagged
        # lane is one it raises on
        mismatched = [
            (n, R, lane, message)
            for lane, (bit, (message, ok)) in enumerate(
                zip(lane_values([run.flagged], R * R), scalar_outcomes(n, R, params))
            )
            if (bit or lane in rejected) == ok or (bit and message is None)
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
    # kernel raises on it, so a fifth cycle never reaches a bucket past
    # the cap
    raised = sum(
        message is not None
        for n, R in TAMPERED
        for message in scalar_raises(n, R, TAMPERS[reason](precompute(R, n)))
    )
    report, _ = tallies(TAMPERED, TAMPERS[reason])
    assert report.instances == sum(R * R for _, R in TAMPERED)
    filled = report.instances - raised
    assert sum(report.cycle_histogram.values()) == sum(report.rule_usage.values()) == filled
    assert [report.cycle_histogram[c] for c in range(NORMAL_CYCLE_CAP + 1, HIST_BUCKETS)] == [
        0
    ] * (HIST_BUCKETS - NORMAL_CYCLE_CAP - 1)
    assert raised <= report.failures_total

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
    """Plane j of per-lane ``values``: each lane's bits as a string, top
    bit first, last lane first, and plane j the string of every lane's
    bit j, read off the joined strings at a stride of ``planes``."""
    spec = f"0{planes}b"
    bits = "".join([format(v, spec) for v in reversed(values)])
    return [int(bits[planes - 1 - j :: planes], 2) for j in range(planes)]


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


def per_lane_operands(moduli, width):
    """A and B of every lane of a batch, lane ``offset + A*R + B``, packed
    in fields of ``width`` bytes as ``unslice`` packs them."""
    a = b"".join(A.to_bytes(width, "little") * R for R in moduli for A in range(R))
    b = b"".join(b"".join(B.to_bytes(width, "little") for B in range(R)) * R for R in moduli)
    return int.from_bytes(a, "little"), int.from_bytes(b, "little")


# every batch of k=3..7, and the first, middle and last batch of k=8..10
@pytest.mark.parametrize("k", range(3, 11))
def test_operand_planes_hold_each_lanes_operands(k):
    for n in (k, k + 3):
        batches = harness._batches(k, n)
        if k >= 8:
            batches = [batches[0], batches[len(batches) // 2], batches[-1]]
        for _, moduli in batches:
            batch = [precompute(R, n) for R in moduli]
            *offsets, lanes = itertools.accumulate((R * R for R in moduli), initial=0)
            a, b = sliced._operand_planes(batch, offsets)
            assert len(a) == k and len(b) == n
            assert b[: n - k] == [0] * (n - k)
            A, B = per_lane_operands(moduli, field_bytes(k))
            assert unslice(a, lanes) == A, (n, moduli)
            assert unslice(b[n - k :], lanes) == B, (n, moduli)


class CountedBuilds(dict):
    """``oracle._kept`` counting how often each unit's pattern is built."""

    def __init__(self):
        super().__init__()
        self.builds = collections.Counter()

    def __setitem__(self, unit, kept):
        self.builds[unit] += 1
        super().__setitem__(unit, kept)


@pytest.fixture
def kept(monkeypatch):
    """An empty ``oracle._kept`` that counts its builds."""
    kept = CountedBuilds()
    monkeypatch.setattr(oracle, "_kept", kept)
    return kept


# the transpose's swap masks, whose top byte is 0, and the guards of
# 1-byte and 2-byte fields
UNITS = [unit for _, unit in sliced._DELTA_SWAPS] + [b"\x80", b"\x00\x80"]


def test_repeated_builds_only_for_a_new_largest_count(kept):
    # the count is rounded up to a power of two, and a kept pattern serves
    # every count up to its own
    unit = UNITS[0]
    first = oracle.repeated(unit, 5)
    assert first == int.from_bytes(unit * 8, "little")
    assert all(oracle.repeated(unit, count) is first for count in (1, 5, 8))
    assert oracle.repeated(unit, 9) == int.from_bytes(unit * 16, "little")
    assert kept.builds == {unit: 2}


def test_a_sweep_builds_patterns_only_for_a_new_largest_batch(kept):
    # the four batches of k=3..6 need four sizes of each; a second sweep
    # builds nothing
    config = SweepConfig(k_min=3, k_max=6, jobs=1)
    first = exhaustive_sweep(config)
    assert set(kept.builds) == set(UNITS[:4])
    assert all(0 < builds <= 4 for builds in kept.builds.values())
    kept.builds.clear()
    again = exhaustive_sweep(config)
    assert kept.builds == {}
    assert again.failures_total == first.failures_total == 0


@pytest.mark.parametrize("unit", UNITS)
def test_a_pattern_cut_to_its_count_is_the_unit_repeated(unit, kept):
    # after long patterns of every other unit (a 1-byte guard with as many
    # bits as a 2-byte one needs among them), and then of its own
    def cut(count):
        return oracle.repeated(unit, count) & ((1 << 8 * len(unit) * count) - 1)

    for other in UNITS:
        if other != unit:
            oracle.repeated(other, 1 << 12)
    for long in (False, True):
        if long:
            oracle.repeated(unit, 1 << 12)
        assert [cut(count) for count in (1, 3, 9)] == [
            int.from_bytes(unit * count, "little") for count in (1, 3, 9)
        ]


def run_k6_batch():
    # k=6 in one batch: 74,928 lanes, 1-byte fields
    (task,) = harness._batches(6, 6)
    assert harness._run_batch_task(task).failures_total == 0


def run_two_byte_batch():
    run = run_moduli([precompute(128, 8)])
    assert exhaustive_mismatches(run.p, run.q, [128]) == []


@pytest.mark.parametrize("before", (run_k6_batch, run_two_byte_batch))
def test_a_small_batch_after_a_large_one_is_as_with_nothing_kept(before, kept):
    # a 16-lane batch's outputs and oracle verdicts, a clean run and one
    # with lane 5's p raised to R
    def small_batch():
        run = run_moduli([precompute(4, 3)])
        bad = exhaustive_mismatches(run.p + (4 << 8 * 5), run.q, [4])
        return run, exhaustive_mismatches(run.p, run.q, [4]), bad

    alone = small_batch()
    kept.clear()
    before()
    assert small_batch() == alone
    assert alone[1:] == ([], [5])


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
    # k=8 runs 1 to 7 moduli per batch in 2-byte fields, whose second byte
    # is a transpose group of one plane; the golden digests stop at k=6
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
    # k=7 is the narrowest width cut into several batches (5, of 7 to 23
    # moduli each)
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

def without_exit_shape(flagged, p, q):
    """Lanes that leave ``_shrink`` with a top bit set, or with both
    next-to-top bits set, and are not in its ``flagged`` mask."""
    return (p[-1] | q[-1] | (p[-2] & q[-2])) & ~flagged


@pytest.mark.parametrize("reason", TAMPERS)
def test_shrink_flags_every_lane_it_leaves_without_its_exit_shape(reason, monkeypatch):
    # _squeeze checks no entry shape: a lane leaves _shrink without it
    # only if it still fired in the last cycle, and _shrink flags those
    exits, inner = [], sliced._shrink

    def shrink(*args):
        exits.append(inner(*args))
        return exits[-1]

    monkeypatch.setattr(sliced, "_shrink", shrink)
    for n, R in TAMPERED:
        run_moduli([TAMPERS[reason](precompute(R, n))])
    assert len(exits) == len(TAMPERED)
    assert [without_exit_shape(flagged, p, q) for flagged, _, p, q in exits] == [0] * len(exits)
    # the cycle tamper leaves lanes without it
    shapeless = sum(without_exit_shape(0, p, q).bit_count() for _, _, p, q in exits)
    assert shapeless or not reason.startswith("InvariantViolation: shrink needed")


def scalar_reduction(p, q, params):
    """(shrink cycles, squeeze rule, p, q) of shrink then squeeze from the
    entry pair (p, q), with ``pipeline.mulmod``'s seam checks from the
    loop's on; None where one of them or a stage raises."""
    try:
        check_low_bits(p, q, params, "main loop")
        acc, shrink = run_shrink(Accumulator(p, q, params.n), params)
        check_low_bits(acc.p, acc.q, params, "shrink")
        acc, squeeze = qcu_apply(squeeze_topup(acc), params)
        if max(shift_right_result(acc.p, acc.q, params)) >= params.modulus:
            return None
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
    assert without_exit_shape(shrunk, p, q) == 0
    flagged |= shrunk | sliced._low_bits(p, q, shift)
    r_bit = sum(seg for params, seg in zip(batch, segments) if params.r_bit)
    rm = planes([params.rm for params in batch])
    rules, p, q = sliced._squeeze(p, q, rn, rm, r_bit, ones)
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
        # the oracle's reject: an exit not below R once shifted back
        rejected = flag or max(outcome[2:]) >> shift >= params.modulus
        if (rejected, expected) != (0, tuple(outcome)) and not (rejected and expected is None):
            mismatched.append((params.modulus, entry, flag, outcome, expected))
    assert mismatched == []
    # at n = k no entry pair breaks a check; on the shift path, those with
    # a set low bit do
    assert (flagged == 0) == (n == k)
