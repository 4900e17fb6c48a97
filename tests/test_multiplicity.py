"""Structural multiplicity rules against the colength tabulation oracle."""

from __future__ import annotations

import importlib
import math
import pickle
import random
from fractions import Fraction

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
from aqci.datum import LEAF, NODE_KIDS, ClassMemo, intern_class, member_forest
from aqci.lct import class_lct, reduced_lct

from helpers import INTERVAL_FIXTURE, SEVEN_CANDIDATE_ENVELOPE, chain, loose_points, star, two_stars


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


def _random_tree(rng: random.Random, leaves: int) -> int:
    """A random class node: runs of 2-4 adjacent trees joined at ratios 2-5."""
    nodes = [LEAF] * leaves
    while len(nodes) > 1:
        size = rng.randint(2, min(4, len(nodes)))
        at = rng.randrange(len(nodes) - size + 1)
        nodes[at : at + size] = [intern_class(rng.randint(2, 5), nodes[at : at + size])]
    return nodes[0]


def test_two_rules_give_the_seven_candidate_envelope():
    # The floor product, (n/lct)^n/|G| and 2^(n - ceil lct) never move an end
    # (the proofs are in `_envelope`'s docstring): both ends equal the
    # envelope that takes every candidate, on every class node of two
    # budgets, deep chains, wide stars and random trees.
    structural = importlib.import_module("aqci.multiplicity")
    tops = _class_nodes(6, 3) | _class_nodes(4, 8)
    for r, depth in ((2, 200), (3, 120)):
        x = LEAF
        for _ in range(depth):
            x = intern_class(r, [x, LEAF])
        tops.add(x)
    tops.update(intern_class(r, [LEAF] * n) for r in (2, 3, 50) for n in range(2, 297))
    rng = random.Random(28)
    tops.update(_random_tree(rng, rng.randint(2, 80)) for _ in range(400))
    for x in tops:
        SEVEN_CANDIDATE_ENVELOPE[x]
    assert len(SEVEN_CANDIDATE_ENVELOPE) > 5000
    # The reduce candidate is an integer on every node (see `_envelope`), so
    # a lost ceiling shows only in the type of the lower end.
    for x, ref in SEVEN_CANDIDATE_ENVELOPE.items():
        ends = structural._class_envelope[x]
        assert ends == ref[5:] and all(type(end) is int for end in ends), x


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
