"""Structural multiplicity rules against the colength tabulation oracle."""

from __future__ import annotations

import importlib
import math
import pickle
from fractions import Fraction

import pytest

from aqci import (
    EXACT,
    INTERVAL,
    EnumerationBudget,
    OracleBudget,
    check_datum,
    enumerate_data,
    hilbert_samuel_table,
    make_datum,
    multiplicity,
    multiplicity_lower_bound,
    multiplicity_upper_bound,
)
from aqci.datum import LEAF, NODE_KIDS, NODE_LEAVES, NODE_RATIO, ClassMemo, member_forest
from aqci.invariants import class_floor_product, class_group_order
from aqci.lct import class_lct, reduced_lct

from helpers import INTERVAL_FIXTURE, chain, loose_points, star, two_stars


# ---------------------------------------------------------------------------
# Structural recursion: exact cases


def test_dimension_one_is_regular():
    res = multiplicity(loose_points(1))
    assert res.is_exact and res.value == 1
    assert [s.rule for s in res.trace] == ["dimension-one"]


def test_star_values_cap_at_the_dimension():
    assert multiplicity(star(3, 2)).value == 2
    assert multiplicity(star(3, 3)).value == 3
    assert multiplicity(star(3, 4)).value == 3
    assert multiplicity(star(3, 5)).value == 3
    assert multiplicity(star(2, 5)).value == 2


def test_star_trace_rules():
    assert any(s.rule == "reduce-equality" for s in multiplicity(star(3, 2)).trace)
    assert any(s.rule == "hypersurface" for s in multiplicity(star(3, 4)).trace)


def test_component_product():
    res = multiplicity(two_stars(2, 2))
    assert res.is_exact and res.value == 4
    assert res.trace[0].rule == "component-product"
    assert multiplicity(two_stars(2, 3)).value == 4
    assert multiplicity(loose_points(4)).value == 1


def test_chain_multiplicities():
    assert multiplicity(chain(2, 2)).value == 4
    assert multiplicity(chain(3, 3, 3)).value == 8


def test_interval_fixture_is_an_honest_interval():
    res = multiplicity(INTERVAL_FIXTURE)
    assert res.status == INTERVAL
    assert res.value is None
    assert res.lower == 5
    assert res.upper == 6


def test_exact_results_are_self_consistent():
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        res = multiplicity(d)
        assert res.lower <= res.upper
        if res.is_exact:
            assert res.lower == res.upper == res.value
            assert res.value >= 1
        else:
            assert res.value is None
            assert res.lower < res.upper
        assert res.trace


# ---------------------------------------------------------------------------
# Standalone bound aggregators


def test_bound_aggregator_fixture_values():
    assert multiplicity_lower_bound(star(3, 2)) == 2
    assert multiplicity_upper_bound(star(3, 2)) == 2
    assert multiplicity_lower_bound(star(3, 4)) == 3
    assert multiplicity_upper_bound(star(3, 4)) == 3
    assert multiplicity_lower_bound(INTERVAL_FIXTURE) == 5
    assert multiplicity_upper_bound(INTERVAL_FIXTURE) == 6


def test_bounds_bracket_the_structural_result():
    # The structural result and the bound functions read one envelope.
    count = 0
    for d in enumerate_data(EnumerationBudget(n_max=6, max_ratio=3)):
        lo = multiplicity_lower_bound(d)
        hi = multiplicity_upper_bound(d)
        res = multiplicity(d)
        assert lo <= hi
        assert lo <= res.upper and res.lower <= hi
        assert hi <= 2 ** (d.n - 1)
        assert (res.lower, res.upper) == (lo, hi), d
        assert res.is_exact == (res.lower == res.upper), d
        assert type(lo) is int and type(hi) is int, d
        count += 1
    assert count == 844


def test_an_empty_envelope_stays_an_honest_interval(monkeypatch):
    structural = importlib.import_module("aqci.multiplicity")
    memo = ClassMemo(structural._envelope)
    memo[member_forest(INTERVAL_FIXTURE).root_nodes[0]] = (7, 6)
    monkeypatch.setattr(structural, "_class_envelope", memo)
    res = multiplicity(INTERVAL_FIXTURE)
    assert res.status == INTERVAL and res.value is None
    assert (res.lower, res.upper) == (7, 6)
    rec = check_datum(INTERVAL_FIXTURE)
    assert rec["multiplicity"]["status"] == INTERVAL
    assert rec["multiplicity"]["value"] is None
    (c13,) = [c for c in rec["checks"] if c["id"] == "C13"]
    assert c13["outcome"] == "fail"
    assert (c13["witness"]["lower"], c13["witness"]["upper"]) == ("7", "6")


def _class_nodes(n_max: int, max_ratio: int) -> set[int]:
    """Every class node below a member of a class with n <= n_max, ratio <= max_ratio."""
    nodes: set[int] = set()
    for d in enumerate_data(EnumerationBudget(n_max=n_max, max_ratio=max_ratio)):
        nodes.update(member_forest(d).node)
    return nodes


def _fraction_lower(x: int, floor_product) -> int:
    """The envelope's lower end with (n/lct)^n/|G| as a Fraction, compared to 1 first."""
    structural = importlib.import_module("aqci.multiplicity")
    n, lct = NODE_LEAVES[x], class_lct[x]
    power, group = (Fraction(n) / lct) ** n, class_group_order[x]
    lower = max(1, floor_product[x], power / group if power > group else 1)
    if x != LEAF:
        kids_lower = math.prod(structural._class_envelope[k][0] for k in NODE_KIDS[x])
        lower = max(lower, min(NODE_RATIO[x], reduced_lct[x]) * kids_lower)
    return math.ceil(lower)


@pytest.mark.parametrize("floor", [None, Fraction(1)])
def test_the_integer_power_test_keeps_the_lower_end(monkeypatch, floor):
    # The envelope compares (n/lct)^n/|G| with its other candidates in
    # integers.  Its lower end is the Fraction form's on every node: at the
    # boundary (n/lct)^n == |G| (a leaf), where the candidate ties the floor
    # product above 1 (it never beats it there), and, with every floor
    # product set to 1, where it beats the floor product and the Fraction is
    # built.
    structural = importlib.import_module("aqci.multiplicity")
    nodes = _class_nodes(6, 3)
    floor_product = class_floor_product
    if floor is not None:
        floor_product = ClassMemo(lambda x: floor)
        monkeypatch.setattr(structural, "class_floor_product", floor_product)
        monkeypatch.setattr(structural, "_class_envelope", ClassMemo(structural._envelope))
    power = {x: (Fraction(NODE_LEAVES[x]) / class_lct[x]) ** NODE_LEAVES[x] for x in nodes}
    assert power[LEAF] == class_group_order[LEAF]
    rest = {x: max(1, floor_product[x]) for x in nodes}
    ratio = {x: power[x] / class_group_order[x] for x in nodes}
    if floor is None:
        assert not any(ratio[x] > rest[x] for x in nodes)
        assert any(ratio[x] == rest[x] > 1 for x in nodes)
    else:
        assert any(ratio[x] > rest[x] for x in nodes)
    for x in nodes:
        assert structural._envelope(x)[0] == _fraction_lower(x, floor_product), x


def test_reduced_lct_is_the_sum_over_the_children():
    for x in _class_nodes(6, 3):
        assert reduced_lct[x] == sum((class_lct[k] for k in NODE_KIDS[x]), Fraction(0)), x


def test_results_with_shared_trace_steps_survive_a_pickle():
    count = 0
    for d in enumerate_data(EnumerationBudget(n_max=6, max_ratio=3)):
        res = multiplicity(d)
        again = multiplicity(d)
        assert again == res
        assert all(a is b for a, b in zip(again.trace, res.trace))
        assert pickle.loads(pickle.dumps(res)) == res
        count += 1
    assert count == 844


def test_trace_steps_stay_in_a_bounded_cache():
    structural = importlib.import_module("aqci.multiplicity")
    structural._step.cache_clear()
    res = multiplicity(chain(*[2] * (2 * structural._STEP_CACHE_SIZE)))
    assert res.is_exact
    info = structural._step.cache_info()
    assert info.maxsize == structural._STEP_CACHE_SIZE
    assert info.currsize == structural._STEP_CACHE_SIZE


# ---------------------------------------------------------------------------
# Colength tabulation oracle


def test_table_for_a_regular_point():
    t = hilbert_samuel_table(loose_points(1))
    assert t.values == tuple(range(1, 13))
    assert t.stabilized and t.e == 1
    assert not t.aborted


def test_table_for_a_regular_plane():
    t = hilbert_samuel_table(loose_points(2))
    assert t.values == tuple(math.comb(k + 1, 2) for k in range(1, 13))
    assert t.stabilized and t.e == 1


def test_table_for_the_weight_two_star():
    t = hilbert_samuel_table(star(3, 2))
    expected = tuple(math.comb(k + 2, 3) + math.comb(k + 1, 3) for k in range(1, 13))
    assert t.values == expected
    assert t.values[:4] == (1, 5, 14, 30)
    assert t.stabilized and t.e == 2


def test_table_for_two_stars():
    t = hilbert_samuel_table(two_stars(2, 2))
    assert t.values[:6] == (1, 7, 26, 70, 155, 301)
    assert t.stabilized and t.e == 4
    assert t.points == 4082


def test_table_confirms_hypersurface_rule():
    t = hilbert_samuel_table(star(3, 4))
    assert t.stabilized and t.e == 3


def test_table_pins_the_interval_fixture():
    t = hilbert_samuel_table(INTERVAL_FIXTURE)
    assert t.stabilized
    assert t.e == 5
    res = multiplicity(INTERVAL_FIXTURE)
    assert res.lower <= t.e <= res.upper


def test_table_values_strictly_increase():
    for d in (star(2, 3), star(3, 3), two_stars(2, 3), chain(2, 2)):
        t = hilbert_samuel_table(d)
        assert all(a < b for a, b in zip(t.values, t.values[1:]))


def test_table_matches_structural_rules_in_low_dimension():
    for d in enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)):
        t = hilbert_samuel_table(d)
        assert t.stabilized, d
        res = multiplicity(d)
        assert res.is_exact
        assert t.e == res.value


def test_budget_abort_is_honest():
    t = hilbert_samuel_table(two_stars(2, 2), OracleBudget(k_max=12, point_ceiling=10))
    assert t.aborted
    assert not t.stabilized
    assert t.e is None
    assert t.values == ()
    assert t.points > 10


def test_shorter_table_may_fail_to_stabilize():
    # Three n-th differences need n + 3 table entries.
    t = hilbert_samuel_table(star(2, 2), OracleBudget(k_max=4))
    assert not t.stabilized
    t = hilbert_samuel_table(star(2, 2), OracleBudget(k_max=5))
    assert t.stabilized and t.e == 2
