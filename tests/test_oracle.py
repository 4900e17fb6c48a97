"""The packed-integer colength oracle against an independent tuple tabulation.

The oracle's `points` counts only its knapsack table D, so it is compared
with the reference on every field but `points`, and with |D| as
`reference_points` counts it from the oracle's rule on tuples.
The kernel `_longest` is also compared, call by call, with the previous
packed kernel `reference_longest`.
"""

from __future__ import annotations

import collections
import importlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqci import (
    EnumerationBudget,
    InvalidDatumError,
    OracleBudget,
    apply_permutation,
    canonical_form,
    enumerate_data,
    hilbert_samuel_table,
    make_datum,
    monomial_ideal,
    to_json,
    validate,
)
from aqci.cli import main
from aqci.datum import (
    MAXIMAL_WEIGHT,
    NODE_KIDS,
    WEIGHT_DIVISIBILITY,
    class_datum,
    member_forest,
)

from helpers import (
    INTERVAL_FIXTURE,
    chain,
    loose_points,
    reference_longest,
    reference_points,
    reference_rule_table,
    reference_table,
    replaced,
    star,
    two_stars,
    without_points,
)

SRC = Path(__file__).resolve().parents[1] / "src"
LOW_DIMENSION = list(enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)))
FOUR_DIMENSIONAL = {
    "two_stars(2,2)": two_stars(2, 2),
    "interval_fixture": INTERVAL_FIXTURE,
    "star(4,2)": star(4, 2),
    "star(4,3)": star(4, 3),
    "chain(2,2,2)": chain(2, 2, 2),
    "pair_of_pairs": make_datum(
        4, [((1, 2, 3, 4), 1), ((1, 2), 2), ((3, 4), 2)] + [((i,), 4) for i in range(1, 5)]
    ),
}


def test_packed_table_matches_reference_in_low_dimension():
    for d in LOW_DIMENSION:
        assert without_points(hilbert_samuel_table(d)) == without_points(reference_table(d)), d


@pytest.mark.parametrize("name", FOUR_DIMENSIONAL)
def test_packed_table_matches_reference_in_dimension_four(name):
    d = FOUR_DIMENSIONAL[name]
    assert without_points(hilbert_samuel_table(d)) == without_points(reference_table(d))


def test_packed_table_matches_reference_on_every_class_up_to_dimension_four():
    # k_max = 7 = n + 3 is the least budget that can stabilize at n = 4.
    budget = OracleBudget(k_max=7)
    data = list(enumerate_data(EnumerationBudget(n_max=4, max_ratio=2)))
    assert len(data) == 17
    for d in data:
        t = hilbert_samuel_table(d, budget)
        assert without_points(t) == without_points(reference_table(d, budget)), d


def test_datum_without_members_is_refused():
    with pytest.raises(InvalidDatumError, match="no members"):
        hilbert_samuel_table(make_datum(2, []))


def test_invalid_datum_is_refused_with_its_violations():
    # The top weight 3 is not 1 and does not divide the singleton weight 2.
    d = make_datum(3, [((1,), 2), ((1, 2, 3), 3), ((2,), 3), ((3,), 3)])
    with pytest.raises(InvalidDatumError) as refused:
        hilbert_samuel_table(d)
    assert refused.value.report == validate(d)
    assert set(refused.value.report.kinds()) >= {MAXIMAL_WEIGHT, WEIGHT_DIVISIBILITY}


def test_residues_that_do_not_close_are_refused():
    # chain(2,2) without its member {1,2}: (1,1,1) is the one generator
    # inside the box Π[0, (4,4,2)), and (2,2,2) mod (4,4,2) = (2,2,0) is
    # not a box point of the smaller semigroup, so the certificate fails.
    oracle = importlib.import_module("aqci.multiplicity")
    d = chain(2, 2)
    ideal = monomial_ideal(d)
    assert (2, 2, 0) in ideal.generators
    lost = replaced(ideal, generators=tuple(g for g in ideal.generators if g != (2, 2, 0)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "monomial_ideal", lambda _: lost)
        with pytest.raises(ArithmeticError, match="not closed") as refused:
            oracle._tabulate.__wrapped__(canonical_form(d)[0], OracleBudget())
    assert refused.traceback[-1].name == "_residues"


def test_finished_table_memory_per_point():
    # A finished table keeps its k_max colengths, not the knapsack table it
    # was counted from: after a cold call the memory still held, cache entry
    # included, is under one byte per point of D (about 2.7 KB for 9,043
    # points).  Keeping the knapsack table would hold tens of bytes per point.
    oracle = importlib.import_module("aqci.multiplicity")
    oracle._tabulate.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = hilbert_samuel_table(chain(3, 2, 2), OracleBudget(k_max=12, point_ceiling=89_901))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert oracle._tabulate.cache_info().misses == 1
    assert not t.aborted and t.points == 9_043 and len(t.values) == 12
    assert kept < t.points


def test_table_memory_follows_the_histogram_not_the_semigroup():
    # The walk covers only the points that can reach the histogram, 9,043
    # of the 89,901 semigroup points up to the degree bound, and stores
    # those of every pass but the last, so it peaks at about 4 bytes per
    # point of that semigroup.  The bound is in those absolute bytes, not
    # scaled by `points`: a table holding the whole semigroup would exceed
    # it.  The cache is cleared first, so the call measured is a cold one
    # (a cache hit peaks at a few KB).
    oracle = importlib.import_module("aqci.multiplicity")
    oracle._tabulate.cache_clear()
    tracemalloc.start()
    try:
        t = hilbert_samuel_table(chain(3, 2, 2), OracleBudget(k_max=12, point_ceiling=89_901))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle._tabulate.cache_info().misses == 1
    assert not t.aborted and t.points == 9_043 and t.e == 8
    assert peak < 20 * 89_901


def test_ceiling_counts_the_stored_table_not_the_semigroup():
    # chain(3,3,3) has 655,384 points within the degree bound, but its
    # knapsack table holds 18,448, so a ceiling of 100,000 finishes.
    t = hilbert_samuel_table(chain(3, 3, 3), OracleBudget(k_max=12, point_ceiling=100_000))
    assert not t.aborted and t.stabilized and t.e == 8 and t.points == 18_448


def test_stored_table_abort_in_memory_bounded_by_the_ceiling():
    tracemalloc.start()
    try:
        t = hilbert_samuel_table(chain(3, 3, 3), OracleBudget(k_max=12, point_ceiling=10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.aborted and t.values == () and t.points == 10_001
    assert peak < 1_000_000


def test_wide_entries_count_once_per_started_256_bits():
    oracle = importlib.import_module("aqci.multiplicity")
    assert oracle._ENTRY_BITS == 256
    assert [oracle._entry_limit(1000, bits) for bits in (0, 1, 256, 257, 512, 513)] == [
        1000, 1000, 1000, 500, 500, 333,
    ]


def test_wide_entries_abort_under_an_address_space_cap(tmp_path):
    # Residues of 12 fields of about 2,560 bits each: counted once per
    # entry, the default ceiling would admit gigabytes of them.
    resource = pytest.importorskip("resource")
    path = tmp_path / "chain-12.json"
    path.write_text(to_json(chain(*[10**70] * 11)) + "\n", encoding="utf-8")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "aqci", "mult", "--method", "oracle", "--k-max", "15", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )
    assert proc.returncode == 0, proc.stderr
    assert "aborted" in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


class _Stop(Exception):
    pass


def _stop(*args):
    raise _Stop


def _route(d, budget=OracleBudget()):
    """The route `_tabulate` takes on `d`.

    "closed" when the table finishes without the knapsack (the lengths are
    linear), "certified" when `_longest` walks D, "aborted" when the table
    aborts unwalked.
    """
    oracle = importlib.import_module("aqci.multiplicity")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_longest", _stop)
        try:
            t = oracle._tabulate.__wrapped__(d, budget)
        except _Stop:
            return "certified"
    return "aborted" if t.aborted else "closed"


def _verify_keys(n_max: int, max_ratio: int) -> set:
    """Every table verify needs on the budget, keyed as `hilbert_samuel_table` keys it.

    The class, its reduced datum (connected, n >= 2) and its components
    (disconnected).  The reduced data and components are smaller classes of
    the same budget.
    """
    keys = set()
    for d in enumerate_data(EnumerationBudget(n_max=n_max, max_ratio=max_ratio)):
        keys.add(canonical_form(d)[0])
        comps = member_forest(d).root_nodes
        if len(comps) > 1:
            keys.update(canonical_form(class_datum([x]))[0] for x in comps)
        elif d.n >= 2:
            keys.add(canonical_form(class_datum(NODE_KIDS[comps[0]]))[0])
    return keys


def test_every_table_verify_needs_takes_the_certified_route():
    # Closed or walked, every table is certified: 62 of the 193 have
    # linear lengths and skip the knapsack.
    keys = _verify_keys(5, 3)
    assert len(keys) == 193
    assert collections.Counter(_route(k) for k in keys) == {"closed": 62, "certified": 131}


def test_generator_below_the_lcm_rejects_linearity_before_the_relaxation():
    # chain(3,2,2), the knapsack table of the scale workload: a generator
    # with phi(g) < L = lcm(a) rules out linear lengths, so `_h_vector`
    # answers None without reading R (an object that is no mapping stands
    # in for it).  Pure powers have phi = L and pass the test.
    oracle = importlib.import_module("aqci.multiplicity")
    gens = monomial_ideal(chain(3, 2, 2)).generators
    a = oracle._pure_powers(gens)
    lcm = math.lcm(*a)
    phis = [sum(x * (lcm // m) for x, m in zip(g, a)) for g in gens]
    assert min(phis) < lcm
    assert all(p == lcm for g, p in zip(gens, phis) if len(g) - g.count(0) == 1)
    assert oracle._h_vector(gens, a, object()) is None


def _kernel_calls(cases) -> list[tuple]:
    """The arguments of every `_longest` call made by tabulating each (key, budget) cold.

    The closed form is switched off (`_h_vector` finds no linear lengths),
    so every table that does not abort reaches the kernel with the
    arguments `_tabulate` computes for it.
    """
    oracle = importlib.import_module("aqci.multiplicity")
    longest = oracle._longest
    calls = []

    def record(*args):
        calls.append(args)
        return longest(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_longest", record)
        mp.setattr(oracle, "_h_vector", lambda *args: None)
        for key, budget in cases:
            oracle._tabulate.__wrapped__(key, budget)
    return calls


def _reference_counts(n, gens, weights, top, cap, ceiling, k_max):
    """(histogram, |D|) from `reference_longest`: bins 0..k_max - 1, then the rest."""
    table = reference_longest(n, gens, weights, top, cap, ceiling)
    if table is None:
        return None
    histogram = [0] * (k_max + 1)
    for v in table.values():
        histogram[min(v >> 1, k_max)] += 1
    return histogram, len(table)


# Kernel arguments (n, gens, weights, top, cap, ceiling, k_max) that no
# valid datum yields.  WALK_ARGS: a top generator (3,3,3) with the pure
# powers (2,3,3), under the cap m·max phi(g) at k_max 6.  DROPPED_LAST_ARGS:
# the generators (0,1), (1,0) and (2,2) under a cap of 3 on phi = deg at
# k_max 4, so the last one does not fit in D.
WALK_ARGS = (3, ((0, 0, 3), (0, 3, 0), (2, 0, 0), (3, 3, 3)), [3, 2, 2], 45, 105, 5_000_000, 6)
DROPPED_LAST_ARGS = (2, ((0, 1), (1, 0), (2, 2)), [1, 1], 12, 3, 5_000_000, 4)


def test_kernel_matches_the_reference_kernel():
    # Every table verify needs at n <= 4, ratio <= 3, chain(3,3,3) among
    # them, a generator set outside the certificate and a dropped last
    # generator; each also at the ceilings |D| - 1, which aborts, and |D|,
    # which finishes.  No entry of these tables is wider than 256 bits, so
    # the ceiling counts entries.
    oracle = importlib.import_module("aqci.multiplicity")
    keys = _verify_keys(4, 3)
    assert canonical_form(chain(3, 3, 3))[0] in keys
    calls = _kernel_calls((k, OracleBudget()) for k in keys)
    assert len(calls) == len(keys)
    for n, gens, weights, top, cap, ceiling, k_max in calls + [WALK_ARGS, DROPPED_LAST_ARGS]:
        expected = _reference_counts(n, gens, weights, top, cap, ceiling, k_max)
        assert oracle._longest(n, gens, weights, top, cap, ceiling, k_max) == expected
        size = expected[1]
        for at, result in ((size - 1, None), (size, expected)):
            assert oracle._longest(n, gens, weights, top, cap, at, k_max) == result
            assert _reference_counts(n, gens, weights, top, cap, at, k_max) == result


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_kernel_matches_the_reference_on_any_generator_order(data):
    # Generators in any order, pure powers or not: a later generator can
    # lengthen a point an earlier one reached ((3), (2), (7): 6 = 2+2+2),
    # so a hand-off must raise the next start.  D holds the first k_max
    # multiples of one generator, as every table `_tabulate` builds does.
    oracle = importlib.import_module("aqci.multiplicity")
    n = data.draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    gens = tuple(data.draw(st.lists(vector, min_size=1, max_size=5, unique=True)))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    k_max = data.draw(st.integers(1, 8))
    g = data.draw(st.sampled_from(gens))
    top = (k_max - 1) * sum(g) + data.draw(st.integers(0, 6))
    cap = (k_max - 1) * sum(x * y for x, y in zip(g, weights)) + data.draw(st.integers(0, 6))
    ceiling = data.draw(st.sampled_from([5, 50, 10**6]))
    args = (n, gens, weights, top, cap, ceiling, k_max)
    assert oracle._longest(*args) == _reference_counts(*args)


def test_counting_pass_aborts_at_the_first_point_past_the_ceiling():
    # One generator, so the only pass is the counting one: it stores
    # nothing, and a check once per walk would walk all 10^8 points of D.
    # The table of loose_points(1) aborts on the count from its residues.
    oracle = importlib.import_module("aqci.multiplicity")
    m = 10**8 - 1
    start = time.perf_counter()
    assert oracle._longest(1, ((1,),), [1], m, m, 1000, 10**8) is None
    assert time.perf_counter() - start < 1
    t = hilbert_samuel_table(loose_points(1), OracleBudget(k_max=10**8, point_ceiling=1000))
    assert time.perf_counter() - start < 1
    assert t.aborted and t.values == () and t.points == 1001


def test_each_point_of_the_table_is_counted_once():
    # The last pass counts every point of D once, with its final length:
    # the k_max bins and the overflow bin sum to `points`.  The tables of
    # verify's n <= 4, ratio <= 2 classes and of chain(3,2,2).
    oracle = importlib.import_module("aqci.multiplicity")
    data = list(enumerate_data(EnumerationBudget(n_max=4, max_ratio=2))) + [chain(3, 2, 2)]
    calls = _kernel_calls((canonical_form(d)[0], OracleBudget()) for d in data)
    assert len(calls) == 18
    for args in calls:
        histogram, points = oracle._longest(*args)
        assert len(histogram) == args[-1] + 1 and sum(histogram) == points


def test_budget_where_no_generator_fits_keeps_the_origin_only():
    # At k_max 1, D is the degree-0 slice: no generator fits and no pass runs.
    budget = OracleBudget(k_max=1)
    [(_, _, _, top, _, _, _)] = _kernel_calls([(star(2, 2), budget)])
    assert top == 0
    t = hilbert_samuel_table(star(2, 2), budget)
    assert t.values == (1,) and t.points == 1 and not t.aborted
    assert without_points(t) == without_points(reference_table(star(2, 2), budget))


def test_last_generator_outside_the_bound_is_dropped():
    # phi((2,2)) = 4 passes the cap of 3, so the last pass walks (1,0):
    # colengths 1, 3, 6, 10 on the 10 points of degree at most 3.
    oracle = importlib.import_module("aqci.multiplicity")
    n, gens, weights, top, cap, ceiling, k_max = DROPPED_LAST_ARGS
    assert gens[-1] == (2, 2) and weights == [1, 1] and cap == 3
    expected = ([1, 2, 3, 4, 0], 10)
    assert oracle._longest(*DROPPED_LAST_ARGS) == expected == _reference_counts(*DROPPED_LAST_ARGS)
    assert oracle._longest(n, gens[:-1], weights, top, cap, ceiling, k_max) == expected


def test_closed_route_matches_the_references_on_every_class_up_to_dimension_four():
    # The 22 classes at n <= 4, ratio <= 3 whose lengths are linear, each
    # at k_max 0, 1, 2, n + 3, 12 and 17 and at the ceilings |D| - 1, |D|
    # and the default: every field equals the oracle's rule run on tuples,
    # and the colengths equal the whole-semigroup reference up to k_max 12
    # (5 s; at 17 it alone takes about 22 s, so there the rule on tuples
    # stands in for it).
    data = list(enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)))
    closed = [d for d in data if _route(d) == "closed"]
    assert len(data) == 49 and len(closed) == 22
    for d in closed:
        for k_max in sorted({0, 1, 2, d.n + 3, 12, 17}):
            budget = OracleBudget(k_max=k_max)
            t = hilbert_samuel_table(d, budget)
            assert t == reference_rule_table(d, budget), (d, budget)
            assert not t.aborted and t.points == reference_points(d, budget)
            if k_max <= 12:
                assert without_points(t) == without_points(reference_table(d, budget))
            for ceiling in (t.points - 1, t.points):
                at = replaced(budget, point_ceiling=ceiling)
                assert hilbert_samuel_table(d, at) == reference_rule_table(d, at), (d, at)
        assert t.stabilized


def test_closed_table_aborts_exactly_past_its_ceiling():
    # chain(2,2,2) never reaches the knapsack: the count of D from its
    # residues decides the abort.
    d = chain(2, 2, 2)
    assert _route(d) == "closed"
    short = hilbert_samuel_table(d, OracleBudget(point_ceiling=7007))
    assert short.aborted and short.points == 7008
    t = hilbert_samuel_table(d, OracleBudget(point_ceiling=7008))
    assert not t.aborted and t.points == 7008 and t.stabilized and t.e == 8


@pytest.mark.parametrize("shift", [-1, 1])
def test_knapsack_size_must_equal_the_residue_count(shift):
    # chain(3,2,2) is certified but its lengths are not linear, so the
    # walk of D runs after the count; a count off by one either way is
    # refused, whether the walk finishes (ceiling 10^6) or aborts at the
    # ceiling |D| - 1 that the low count claims to fit.
    oracle = importlib.import_module("aqci.multiplicity")
    size = oracle._size
    ceiling = 10**6 if shift > 0 else 9_042
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_size", lambda *args: size(*args) + shift)
        with pytest.raises(ArithmeticError, match="residues count"):
            oracle._tabulate.__wrapped__(chain(3, 2, 2), OracleBudget(point_ceiling=ceiling))
    t = oracle._tabulate.__wrapped__(chain(3, 2, 2), OracleBudget(point_ceiling=ceiling))
    assert t.points == 9_043 and (t.aborted == (shift < 0))


def test_residues_past_the_ceiling_abort_before_the_knapsack():
    # star(2, 10^5) has 10^5 residues: R alone passes the ceiling, so no
    # knapsack table is built beside it.
    oracle = importlib.import_module("aqci.multiplicity")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_longest", _stop)
        t = oracle._tabulate.__wrapped__(star(2, 10**5), OracleBudget(k_max=12, point_ceiling=1000))
    assert t.aborted and t.points == 1001


def test_two_stars_table_has_its_known_size():
    # 5,551 semigroup points up to the degree bound; the knapsack stores 4,082.
    assert hilbert_samuel_table(two_stars(2, 2)).points == 4082


def test_coordinate_equal_to_the_degree_bound():
    # One variable of weight 1: the stored points are 0..11 and 11 is the
    # degree bound of the knapsack, so the last point's coordinate is the
    # largest value a field must hold.
    t = hilbert_samuel_table(loose_points(1))
    assert t.points == 12
    assert without_points(t) == without_points(reference_table(loose_points(1)))


def _near_power_of_two(bound: int) -> bool:
    return any(abs(bound - 2**j) <= 1 for j in range(1, 10))


@pytest.mark.parametrize(
    "d", [loose_points(1), loose_points(2), star(2, 2), star(3, 2)],
    ids=["loose_points(1)", "loose_points(2)", "star(2,2)", "star(3,2)"],
)
def test_degree_bounds_around_powers_of_two(d):
    # The oracle's table D reaches (k_max - 1) times the top degree, the
    # reference's closure k_max times it: both bounds are probed.
    top = max(len(m.elements) * m.weight for m in d.members)
    budgets = [
        OracleBudget(k_max=k)
        for k in range(1, 18)
        if _near_power_of_two(k * top) or _near_power_of_two((k - 1) * top)
    ]
    assert len(budgets) >= 3
    for budget in budgets:
        t = hilbert_samuel_table(d, budget)
        assert without_points(t) == without_points(reference_table(d, budget)), (d, budget)
        assert t.points == reference_points(d, budget), (d, budget)


def test_empty_budget_keeps_the_origin_only():
    t = hilbert_samuel_table(star(2, 2), OracleBudget(k_max=0))
    assert t == reference_table(star(2, 2), OracleBudget(k_max=0))
    assert t.values == () and t.points == 1


@pytest.mark.parametrize("ceiling", [0, 1, 2, 10, 100, 4081])
def test_aborted_points_stop_at_the_ceiling(ceiling):
    t = hilbert_samuel_table(two_stars(2, 2), OracleBudget(k_max=12, point_ceiling=ceiling))
    assert t.aborted and t.values == () and t.e is None and not t.stabilized
    assert t.points == ceiling + 1


def test_large_weights_abort_in_memory_bounded_by_the_ceiling():
    # The generators of star(2, 10^5) under degree and phi = deg bounds of
    # 11 * 10^5: the walk stops after ceiling + 1 points.  The table stops
    # earlier, as its 10^5 residues alone pass the ceiling.
    oracle = importlib.import_module("aqci.multiplicity")
    gens = monomial_ideal(star(2, 10**5)).generators
    bound = 11 * 10**5
    tracemalloc.start()
    try:
        counted = oracle._longest(2, gens, [1, 1], bound, bound, 1000, 12)
        t = hilbert_samuel_table(star(2, 10**5), OracleBudget(k_max=12, point_ceiling=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted is None
    assert t.aborted and t.values == () and t.points == 1001
    assert peak < 1_000_000


def test_huge_k_max_aborts_in_memory_bounded_by_the_ceiling():
    # The histogram of longest lengths is sized by the ceiling, not by
    # k_max: the kernel on star(2,2)'s generators at k_max 10^7, and its
    # table, which aborts on the count from its residues.
    oracle = importlib.import_module("aqci.multiplicity")
    gens = monomial_ideal(star(2, 2)).generators
    bound = 2 * (10**7 - 1)
    tracemalloc.start()
    try:
        counted = oracle._longest(2, gens, [1, 1], bound, bound, 1000, 10**7)
        t = hilbert_samuel_table(star(2, 2), OracleBudget(k_max=10**7, point_ceiling=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted is None
    assert t.aborted and t.values == () and t.points == 1001
    assert peak < 1_000_000


def test_counted_points_abort_for_any_degree_bound():
    # Pure powers 2 and 1, phi = (1, 2): the knapsack's degree bound is
    # about 2 * 10^7, but it stops after ceiling + 1 stored points.
    oracle = importlib.import_module("aqci.multiplicity")
    bound = 2 * (10**7 - 1)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        counted = oracle._longest(2, ((0, 1), (2, 0)), [1, 2], bound, bound, 1000, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert counted is None
    assert peak < 1_000_000


def test_exact_ceiling_does_not_abort():
    short = hilbert_samuel_table(two_stars(2, 2), OracleBudget(k_max=12, point_ceiling=4081))
    assert short.aborted and short.points == 4082
    t = hilbert_samuel_table(two_stars(2, 2), OracleBudget(k_max=12, point_ceiling=4082))
    assert not t.aborted and t.points == 4082


def test_time_follows_the_points_not_the_degree_bound():
    # One generator of degree 10^8: 4 stored points under a degree bound of
    # 3 * 10^8, so a walk over every degree up to the bound would take minutes.
    oracle = importlib.import_module("aqci.multiplicity")
    bound = 3 * 10**8
    args = (1, ((10**8,),), [1], bound, bound, 5_000_000, 4)
    start = time.perf_counter()
    counted = oracle._longest(*args)
    assert time.perf_counter() - start < 1
    assert counted == ([1, 1, 1, 1, 0], 4) == _reference_counts(*args)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_relabeling_shares_one_cache_entry(data):
    d = data.draw(st.sampled_from(LOW_DIMENSION + [two_stars(2, 2)]))
    perm = data.draw(st.permutations(range(1, d.n + 1)))
    relabeled = apply_permutation(d, tuple(perm))
    budget = OracleBudget(k_max=8)
    t = hilbert_samuel_table(d, budget)
    assert hilbert_samuel_table(relabeled, budget) is t
    assert without_points(t) == without_points(reference_table(relabeled, budget))


def _finished_reference(d, budget):
    """The reference table at a ceiling it never reaches on these small data.

    The oracle stores fewer points than the reference, so it may finish
    where the reference at the same ceiling aborts.
    """
    table = reference_table(d, replaced(budget, point_ceiling=10**6))
    assert not table.aborted
    return table


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(LOW_DIMENSION),
    st.tuples(st.integers(1, 14), st.sampled_from([3, 50, 10**6])),
    st.tuples(st.integers(1, 14), st.sampled_from([3, 50, 10**6])),
)
def test_different_budgets_never_share_an_entry(d, first, second):
    b1, b2 = OracleBudget(*first), OracleBudget(*second)
    t1, t2 = hilbert_samuel_table(d, b1), hilbert_samuel_table(d, b2)
    assert (t1 is t2) == (b1 == b2)
    for t, b in ((t1, b1), (t2, b2)):
        if t.aborted:
            assert t.points == b.point_ceiling + 1
            assert reference_table(d, b).aborted
        else:
            assert without_points(t) == without_points(_finished_reference(d, b))


RATIO_FOUR = list(enumerate_data(EnumerationBudget(n_max=3, max_ratio=4)))


@st.composite
def _candidates(draw):
    """A class with n <= 3 and ratio <= 4, randomly relabeled.

    The labels fix the order in which the knapsack takes the generators,
    so `_tabulate` on a relabeling, past the cache that canonical forms
    key, walks other generator orders than the canonical form's.
    """
    d = draw(st.sampled_from(RATIO_FOUR))
    return apply_permutation(d, tuple(draw(st.permutations(range(1, d.n + 1)))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_candidates(), st.integers(3, 5), st.integers(0, 5000))
def test_packed_table_matches_reference_on_arbitrary_generator_sets(d, extra, ceiling):
    oracle = importlib.import_module("aqci.multiplicity")
    budget = OracleBudget(k_max=d.n + extra, point_ceiling=ceiling)
    t = hilbert_samuel_table(d, budget)
    assert oracle._tabulate.__wrapped__(d, budget) == t
    if t.aborted:
        assert t.points == ceiling + 1
        assert reference_table(d, budget).aborted
    else:
        expected = _finished_reference(d, budget)
        assert without_points(t) == without_points(expected)
        assert t.points == reference_points(d, budget) <= expected.points


def _run_oracle_cli(path, *extra):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "aqci", "mult", "--method", "oracle", "--json", *extra, path],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.stderr == ""
    return proc.returncode, json.loads(proc.stdout)


def test_optimized_interpreter_gives_the_same_oracle_payload(tmp_path, capsys):
    path = tmp_path / "pair22.json"
    path.write_text(to_json(two_stars(2, 2)) + "\n", encoding="utf-8")
    for extra in ((), ("--point-ceiling", "100")):
        assert main(["mult", "--method", "oracle", "--json", *extra, str(path)]) == 0
        expected = json.loads(capsys.readouterr().out)
        assert _run_oracle_cli(str(path), *extra) == (0, expected)
    assert expected["oracle"]["aborted"] and expected["oracle"]["points"] == 101
