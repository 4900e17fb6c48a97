"""The packed-integer colength oracle against an independent tuple tabulation.

The oracle's `points` counts only its knapsack table D, so it is compared
with the reference on every field but `points`, and with |D| as
`reference_points` counts it from the oracle's rule on tuples.
The kernel `_longest` is also compared, call by call, with the previous
packed kernel `reference_longest`.
"""

from __future__ import annotations

import importlib
import json
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
    OracleBudget,
    apply_permutation,
    canonical_form,
    enumerate_data,
    hilbert_samuel_table,
    make_datum,
    to_json,
)
from aqci.cli import main
from aqci.datum import NODE_KIDS, class_datum, member_forest

from helpers import (
    INTERVAL_FIXTURE,
    chain,
    loose_points,
    reference_longest,
    reference_points,
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
    with pytest.raises(ValueError, match="no generators"):
        hilbert_samuel_table(make_datum(2, []))


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
    """The route `_tabulate` takes on `d`: certified when `_residues` returns a table."""
    oracle = importlib.import_module("aqci.multiplicity")
    residues = oracle._residues
    found = []

    def record(*args):
        found.append(residues(*args))
        return found[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_residues", record)
        mp.setattr(oracle, "_longest", _stop)
        with pytest.raises(_Stop):
            oracle._tabulate.__wrapped__(d, budget)
    return "certified" if found and found[0] else "uncertified"


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
    keys = _verify_keys(5, 3)
    assert len(keys) == 193
    assert {_route(k) for k in keys} == {"certified"}


# Every singleton is there, but the top weight 3 does not divide the
# singleton weight 2: (3,3,3) mod (2,3,3) = (1,0,0) is not in the semigroup,
# so its residues mod the pure powers are not closed.
WALK_DATUM = make_datum(3, [((1,), 2), ((1, 2, 3), 3), ((2,), 3), ((3,), 3)])

# The generators are (0,1), (1,0) and (2,2), in that order.  At k_max 4 the
# cap on phi = deg is 3, so the last one does not fit in D.
DROPPED_LAST = make_datum(2, [((1, 2), 2), ((1,), 1), ((2,), 1)])


def _assert_uncertified_table(d, budget):
    """The table of `d` without the certificate: the reference's values, |D| points.

    D is never larger than the semigroup up to the degree bound
    k_max·maxdeg, which the reference stores.
    """
    assert _route(d, budget) == "uncertified"
    t, expected = hilbert_samuel_table(d, budget), reference_table(d, budget)
    assert without_points(t) == without_points(expected)
    assert t.points == reference_points(d, budget) <= expected.points
    return t


def test_generator_set_outside_the_certificate_keeps_the_uncertified_cap():
    budget = OracleBudget(k_max=6)
    assert _route(star(3, 2), budget) == "certified"
    assert _assert_uncertified_table(WALK_DATUM, budget).points == 1565


@pytest.mark.parametrize("k_max", [0, 1])
def test_uncertified_table_below_two_parts_keeps_the_origin_only(k_max):
    # m = 0 caps degree and phi at 0, with or without pure powers.
    invalid = make_datum(3, [((1, 2, 3), 1), ((1,), 2)])
    for d in (WALK_DATUM, invalid):
        assert _assert_uncertified_table(d, OracleBudget(k_max=k_max)).points == 1


def test_uncertified_table_aborts_exactly_past_its_ceiling():
    # The data of the test above: D under the uncertified cap is the
    # table, and a ceiling one short of it aborts.
    d = WALK_DATUM
    points = hilbert_samuel_table(d, OracleBudget(k_max=6)).points
    short = hilbert_samuel_table(d, OracleBudget(k_max=6, point_ceiling=points - 1))
    assert short.aborted and short.points == points
    exact = hilbert_samuel_table(d, OracleBudget(k_max=6, point_ceiling=points))
    assert not exact.aborted and exact.points == points


def _kernel_calls(cases) -> list[tuple]:
    """The arguments of every `_longest` call made by tabulating each (key, budget) cold."""
    oracle = importlib.import_module("aqci.multiplicity")
    longest = oracle._longest
    calls = []

    def record(*args):
        calls.append(args)
        return longest(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_longest", record)
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


def test_kernel_matches_the_reference_kernel():
    # Every table verify needs at n <= 4, ratio <= 3, chain(3,3,3) among
    # them, an uncertified generator set and a dropped last generator; each
    # also at the ceilings |D| - 1, which aborts, and |D|, which finishes.
    # No entry of these tables is wider than 256 bits, so the ceiling
    # counts entries.
    oracle = importlib.import_module("aqci.multiplicity")
    keys = _verify_keys(4, 3)
    assert canonical_form(chain(3, 3, 3))[0] in keys
    cases = [(k, OracleBudget()) for k in keys]
    cases += [(WALK_DATUM, OracleBudget(k_max=6)), (DROPPED_LAST, OracleBudget(k_max=4))]
    calls = _kernel_calls(cases)
    assert len(calls) == len(cases)
    for n, gens, weights, top, cap, ceiling, k_max in calls:
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
    start = time.perf_counter()
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
    # phi((2,2)) = 4 passes the cap of 3, so the last pass walks (1,0).
    budget = OracleBudget(k_max=4)
    [(_, gens, weights, _, cap, _, _)] = _kernel_calls([(DROPPED_LAST, budget)])
    assert gens[-1] == (2, 2) and weights == [1, 1] and cap == 3
    t = hilbert_samuel_table(DROPPED_LAST, budget)
    assert t.values == (1, 3, 6, 10) and t.points == 10
    assert without_points(t) == without_points(reference_table(DROPPED_LAST, budget))


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
    # bound = 12 * 10^5, but the closure stops after ceiling + 1 points.
    tracemalloc.start()
    try:
        t = hilbert_samuel_table(star(2, 10**5), OracleBudget(k_max=12, point_ceiling=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.aborted and t.values == () and t.points == 1001
    assert peak < 1_000_000


def test_huge_k_max_aborts_in_memory_bounded_by_the_ceiling():
    # The histogram of longest lengths is sized by the ceiling, not by k_max.
    tracemalloc.start()
    try:
        t = hilbert_samuel_table(star(2, 2), OracleBudget(k_max=10**7, point_ceiling=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.aborted and t.values == () and t.points == 1001
    assert peak < 1_000_000


def test_counted_points_abort_for_any_degree_bound():
    # Pure powers 2 and 1: the knapsack's degree bound is about 2 * 10^7,
    # but it stops after ceiling + 1 stored points.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        d = make_datum(2, [((1,), 2), ((2,), 1)])
        t = hilbert_samuel_table(d, OracleBudget(k_max=10**7, point_ceiling=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert t.aborted and t.values == () and t.points == 1001
    assert peak < 1_000_000


def test_exact_ceiling_does_not_abort():
    short = hilbert_samuel_table(two_stars(2, 2), OracleBudget(k_max=12, point_ceiling=4081))
    assert short.aborted and short.points == 4082
    t = hilbert_samuel_table(two_stars(2, 2), OracleBudget(k_max=12, point_ceiling=4082))
    assert not t.aborted and t.points == 4082


def test_invalid_data_are_keyed_by_their_own_labels():
    # Both miss singletons, so they have no canonical form, and they present
    # different ideals, so they must not share a cache entry.  Their values
    # agree, so the entries are told apart by the cache itself.
    oracle = importlib.import_module("aqci.multiplicity")
    a = make_datum(3, [((1, 2, 3), 1), ((1,), 2)])
    b = make_datum(3, [((1, 2), 1), ((1,), 2)])
    for x in (a, b):
        with pytest.raises(ValueError):
            canonical_form(x)
    budget = OracleBudget(k_max=6)
    oracle._tabulate.cache_clear()
    ta, tb = hilbert_samuel_table(a, budget), hilbert_samuel_table(b, budget)
    assert oracle._tabulate.cache_info().misses == 2 and ta is not tb
    assert _assert_uncertified_table(a, budget) is ta
    assert _assert_uncertified_table(b, budget) is tb


def test_time_follows_the_points_not_the_degree_bound():
    # One generator of degree 10^8: 4 stored points under a degree bound of
    # 3 * 10^8, so a walk over every degree up to the bound would take minutes.
    d = make_datum(1, [((1,), 10**8)])
    budget = OracleBudget(k_max=4)
    start = time.perf_counter()
    t = hilbert_samuel_table(d, budget)
    assert time.perf_counter() - start < 1
    assert without_points(t) == without_points(reference_table(d, budget))
    assert t.points == 4

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


@st.composite
def _candidates(draw):
    """Every singleton plus up to three random subsets, weights 1-4, n <= 3.

    Laminar or not, valid or not: the generator sets are arbitrary, so the
    longest-decomposition lengths need not be as regular as on valid data.
    """
    n = draw(st.integers(1, 3))
    labels = range(1, n + 1)
    subsets = st.lists(st.sampled_from(labels), min_size=1, unique=True).map(sorted)
    sets = [((i,), draw(st.integers(1, 4))) for i in labels]
    sets += [(draw(subsets), draw(st.integers(1, 4))) for _ in range(draw(st.integers(0, 3)))]
    return make_datum(n, sets)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_candidates(), st.integers(3, 5), st.integers(0, 5000))
def test_packed_table_matches_reference_on_arbitrary_generator_sets(d, extra, ceiling):
    budget = OracleBudget(k_max=d.n + extra, point_ceiling=ceiling)
    t = hilbert_samuel_table(d, budget)
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
