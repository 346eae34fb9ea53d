"""The kernel's decision rules, each one function of bit operands that the
scalar and the bit-sliced kernel both call.

Every input of a rule is enumerated as the lanes of a set of planes: lane
x holds the input whose bits, in argument order, spell x in binary. One
call on the planes must give, lane by lane, what one call per lane on 0/1
ints gives, and no output plane may reach past the lanes.
"""

from itertools import product

import pytest

from csmulmod.mainloop import _F_TABLE, predict
from csmulmod.shrink import _SHRINK_TABLE, shrink_rules
from csmulmod.squeeze import _SQUEEZE_TABLE, squeeze_rules

# name: (input bits, the rule called with ``ones`` and the input bits)
RULES = {
    "predict": (7, lambda ones, *bits: predict(*bits)),
    "shrink_rules": (3, lambda ones, *bits: shrink_rules(*bits)),
    "squeeze_rules": (4, lambda ones, *bits: squeeze_rules(*bits, ones)),
}


def flat(out):
    """The rule's output as one flat list of ints."""
    if isinstance(out, tuple):
        return [x for item in out for x in flat(item)]
    return [out]


def on_every_input(name):
    """The rule's flat output on the input planes, and on each lane's bits."""
    arity, rule = RULES[name]
    inputs = list(product((0, 1), repeat=arity))
    planes = [sum(bits[i] << x for x, bits in enumerate(inputs)) for i in range(arity)]
    lanes = len(inputs)
    return flat(rule((1 << lanes) - 1, *planes)), [flat(rule(1, *bits)) for bits in inputs]


def lane(planes, x):
    return [(plane >> x) & 1 for plane in planes]


@pytest.mark.parametrize("name", RULES)
def test_planes_give_what_each_lane_gives(name):
    on_planes, per_lane = on_every_input(name)
    for plane in on_planes:
        assert 0 <= plane < 1 << len(per_lane), name
    for x, bits in enumerate(per_lane):
        assert bits == lane(on_planes, x), (name, x)


def test_predictor_planes_equal_the_loop_table():
    (f0, f1), _ = on_every_input("predict")
    # lane x spells (p_n p_n-1 p_n-2 q_n q_n-1 q_n-2 b_top); the loop reads
    # the table at the top bits of p ^ q and p & q, so on all 128 inputs
    # predict must depend on nothing else
    for x in range(128):
        f = ((f1 >> x) & 1) << 1 | ((f0 >> x) & 1)
        p3, q3 = x >> 4, (x >> 1) & 7
        assert _F_TABLE[x & 1][p3 ^ q3][p3 & q3] == f, x


def test_stage_tables_equal_their_rules():
    # the scalar stages read each rule from a table indexed by its input
    # bits in argument order; on all 8 and 16 inputs an entry holds the
    # fired rule (0 for none in shrink), then the clear bits or the edited
    # bits (p's two read as one number)
    shrink_planes, _ = on_every_input("shrink_rules")
    assert len(_SHRINK_TABLE) == 8
    for x, entry in enumerate(_SHRINK_TABLE):
        *rules, clear_p, clear_q = lane(shrink_planes, x)
        rule = rules.index(1) + 1 if 1 in rules else 0
        assert entry == (rule, clear_p, clear_q), x
    squeeze_planes, _ = on_every_input("squeeze_rules")
    assert len(_SQUEEZE_TABLE) == 16
    for x, entry in enumerate(_SQUEEZE_TABLE):
        *rules, e_hi, e_lo, e_q = lane(squeeze_planes, x)
        assert entry == (rules.index(1) + 1, e_hi << 1 | e_lo, e_q), x


def test_shrink_fires_at_most_one_rule_and_clears_as_its_table_says():
    on_planes, _ = on_every_input("shrink_rules")
    for x, (pn, qn, pq_next) in enumerate(product((0, 1), repeat=3)):
        *rules, clear_p, clear_q = lane(on_planes, x)
        assert sum(rules) <= 1
        # the priority table, with no rule exactly on the exit shape; after
        # the top-up a set top bit of q implies one of p
        if qn and not pn:
            continue
        expected = (
            1 if pn and qn else 2 if pn and pq_next else 3 if pn else 4 if pq_next else 0
        )
        assert rules == [int(r == expected) for r in (1, 2, 3, 4)], x
        assert (clear_p, clear_q) == {2: (1, 1), 3: (1, 0), 4: (0, 1)}.get(expected, (0, 0))


def test_squeeze_fires_exactly_one_rule_and_edits_as_its_table_says():
    on_planes, _ = on_every_input("squeeze_rules")
    for x, (p_hi, p_lo, q_lo, r_bit) in enumerate(product((0, 1), repeat=4)):
        *rules, e_hi, e_lo, e_q = lane(on_planes, x)
        assert sum(rules) == 1
        if not p_hi:
            expected, edited = 1, (p_hi, p_lo, q_lo)
        elif q_lo:
            expected, edited = 2, (0, 0, 0)
        elif not r_bit:
            expected, edited = (3, (0, 0, q_lo)) if p_lo else (4, (0, 1, 1))
        else:
            expected, edited = (6, (p_hi, 0, 1)) if p_lo else (5, (p_hi, p_lo, q_lo))
        assert rules.index(1) + 1 == expected, x
        assert (e_hi, e_lo, e_q) == edited, x
