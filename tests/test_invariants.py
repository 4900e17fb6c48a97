"""Embedding dimension, branching, acting-group order (three routes), factors."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from aqci import (
    EnumerationBudget,
    branching_product,
    children,
    edge_count_identity,
    embedding_dimension,
    enumerate_data,
    find_closure_power,
    floor_factor_product,
    group_generators,
    group_order,
    group_order_lattice,
    is_connected,
    lct_datum,
    make_datum,
    maximal_elements,
    restrict,
    scale,
    summarize,
)
from aqci.invariants import _lattice_rows, _row_lattice_index

from helpers import (
    chain,
    closure_mod,
    reference_children,
    reference_group_generators,
    star,
    subgroup_closure,
    subgroup_order,
    two_stars,
)


def loose_points(n):
    return make_datum(n, [((i,), 1) for i in range(1, n + 1)])


INTERVAL_FIXTURE = make_datum(
    4,
    [((1, 2, 3, 4), 1), ((1,), 3), ((2, 3, 4), 3), ((2,), 6), ((3,), 6), ((4,), 6)],
)


# ---------------------------------------------------------------------------
# Counting invariants


def test_embedding_dimension():
    assert embedding_dimension(star(3, 2)) == 4
    assert embedding_dimension(two_stars(2, 2)) == 6
    assert embedding_dimension(chain(3, 3, 3)) == 7
    assert embedding_dimension(loose_points(5)) == 5


def test_child_counts_and_branching_product():
    d = chain(3, 3, 3)
    idx = {m.elements: i for i, m in enumerate(d.members)}
    assert len(children(d, idx[(1, 2, 3, 4)])) == 2
    assert len(children(d, idx[(1, 2)])) == 2
    assert len(children(d, idx[(4,)])) == 0
    assert branching_product(d) == 8
    assert branching_product(star(3, 2)) == 3
    assert branching_product(two_stars(2, 3)) == 4
    assert branching_product(loose_points(3)) == 1


def test_edge_count_identity_everywhere():
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        lhs, rhs = edge_count_identity(d)
        assert lhs == rhs
        if is_connected(d):
            assert rhs == d.n - 1


def test_branching_fits_under_binary_envelope():
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        roots = len(maximal_elements(d))
        assert branching_product(d) <= 2 ** (d.n - roots)


# ---------------------------------------------------------------------------
# Acting group: explicit generators


def test_group_generators_of_a_two_point_star():
    assert group_generators(star(2, 3)) == [(2, 1, 3)]


def test_group_generators_count_one_less_than_each_member():
    # One triple per child past the first: n - #roots in all, each linking
    # the smallest element of another child to that of the first child
    # (children found by pairwise containment, not by the member forest).
    for d in (star(5, 2), chain(3, 2, 2), two_stars(2, 3), INTERVAL_FIXTURE):
        gens = group_generators(d)
        assert len(gens) == edge_count_identity(d)[1]
        expected = []
        for j in range(len(d.members)):
            kids = reference_children(d, j)
            firsts = [d.elements_of(k)[0] for k in kids]
            expected += [(i, firsts[0], d.weight_of(k)) for i, k in zip(firsts[1:], kids[1:])]
        assert sorted(gens) == sorted(expected)
        assert all(type(x) is int for g in gens for x in g)


def test_group_generators_empty_for_loose_points():
    assert group_generators(loose_points(3)) == []


# ---------------------------------------------------------------------------
# Acting group: order by three independent routes


def test_group_order_fixture_values():
    assert group_order(star(3, 2)) == 4
    assert group_order(star(3, 3)) == 9
    assert group_order(star(3, 5)) == 25
    assert group_order(two_stars(2, 2)) == 4
    assert group_order(chain(3, 3, 3)) == 729
    assert group_order(INTERVAL_FIXTURE) == 108
    assert group_order(loose_points(4)) == 1


def test_group_order_recursion_matches_lattice_route():
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        assert group_order(d) == group_order_lattice(d)


def test_group_order_routes_agree_on_every_class_to_dimension_six():
    count = 0
    for d in enumerate_data(EnumerationBudget(n_max=6, max_ratio=3)):
        assert group_order(d) == group_order_lattice(d), d
        count += 1
    assert count == 844


def test_group_order_lattice_closed_forms_at_scale():
    # |G| = r^(n-1) for a star; a chain of ratio 2 gives 2^(1 + 2 + .. + (n-1)).
    assert group_order_lattice(star(200, 2)) == 2**199
    assert group_order_lattice(chain(*[2] * 39)) == 2**780
    assert group_order_lattice(chain(*[2] * 79)) == 2**3160
    assert group_order_lattice(chain(*[3] * 79)) == 3**3160
    assert group_order_lattice(star(1000, 2)) == 2**999
    assert group_order_lattice(chain(*[2] * 399)) == 2**79800
    assert group_order_lattice(chain(*[3] * 199)) == 3**19900


def test_rank_deficient_rows_raise():
    # Column 2 holds no entry; a plain raise, so it holds under python -O too.
    with pytest.raises(ArithmeticError):
        _row_lattice_index([{1: 2}, {1: 3}], 2)
    with pytest.raises(ArithmeticError):
        _row_lattice_index([{1: 2, 2: -2}, {1: 1, 2: -1}], 2)


def test_pivot_not_dividing_m_raises(monkeypatch):
    # Pivots 4 and 9 under M = 6: their product 36 divides M^2, but the
    # column factors 6/4 and 6/9 are not integers.
    monkeypatch.setattr("aqci.invariants._lattice_rows", lambda d: (6, [{1: 4}, {2: 9}]))
    with pytest.raises(ArithmeticError, match="does not divide"):
        group_order_lattice(star(2, 2))


def test_group_order_matches_subgroup_closure():
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        expected = subgroup_order(group_generators(d), d.n)
        assert group_order(d) == expected
        assert group_order_lattice(d) == expected


def test_lattice_rows_reduce_mod_m_to_the_subgroup_closure():
    # The rows themselves, not only their index: Z^n and the e_i/w alone (the
    # -M/w at r dropped) span a lattice of the same index on these data.
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        m, rows = _lattice_rows(d)
        rows = [[row.get(j, 0) for j in range(1, d.n + 1)] for row in rows]
        expected_m, expected = subgroup_closure(reference_group_generators(d), d.n)
        assert m == expected_m, d
        assert closure_mod(rows, m, d.n) == expected, d


def test_group_order_scaling_law():
    for d in enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)):
        if not is_connected(d):
            continue
        base = group_order(d)
        for a in (2, 3):
            scaled = scale(d, a)
            assert group_order(scaled) == a ** (d.n - 1) * base
            assert group_order_lattice(scaled) == a ** (d.n - 1) * base


def test_group_order_multiplicative_over_components():
    d = two_stars(2, 3)
    parts = [restrict(d, j) for j in maximal_elements(d)]
    assert group_order(d) == math.prod(group_order(p) for p in parts)


# ---------------------------------------------------------------------------
# Child weight and floor factors


def top_member_factors(d):
    """(floor factor, child-weight factor) of the member holding every element."""
    s = summarize(d)
    top = tuple(range(1, d.n + 1))
    return dict(s.floor_factors)[top], dict(s.child_weight_factors)[top]


def test_top_child_weight():
    assert top_member_factors(star(3, 4))[1] == 4
    assert top_member_factors(chain(3, 3, 3))[1] == 3
    assert top_member_factors(loose_points(1))[1] == 1


def test_floor_factor_values():
    assert top_member_factors(star(3, 2))[0] == 2
    assert top_member_factors(star(3, 3))[0] == 3
    assert top_member_factors(star(3, 4))[0] == 3
    assert top_member_factors(chain(3, 3, 3))[0] == 2
    assert top_member_factors(loose_points(1))[0] == 1


def test_floor_factor_product_values():
    assert floor_factor_product(star(3, 2)) == 2
    assert floor_factor_product(star(3, 4)) == 3
    assert floor_factor_product(two_stars(2, 2)) == 4
    assert floor_factor_product(loose_points(3)) == 1


def test_floor_factor_never_exceeds_child_weight():
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        s = summarize(d)
        for (j, floor), (k, weight) in zip(s.floor_factors, s.child_weight_factors):
            assert j == k
            assert floor <= weight


def test_floor_product_dominates_power_bound():
    # The product of floor factors is at least n^n / (|G| lct^n), with
    # equality exactly when the closure is a power of the maximal ideal.
    for d in enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)):
        ffp = floor_factor_product(d)
        power_bound = Fraction(d.n) ** d.n / (group_order(d) * lct_datum(d) ** d.n)
        assert ffp >= power_bound
        assert (ffp == power_bound) == (find_closure_power(d) is not None)


# ---------------------------------------------------------------------------
# Embedding dimension versus threshold


def test_embedding_dimension_bound_by_threshold():
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        per_component = sum(
            math.ceil(lct_datum(restrict(d, j))) for j in maximal_elements(d)
        )
        assert embedding_dimension(d) <= 2 * d.n - per_component
        assert per_component >= math.ceil(lct_datum(d))


def test_embedding_dimension_bound_is_sharp_on_small_stars():
    # Stars with singleton weight 2 meet the bound with equality in
    # dimensions two and three (threshold n/2 still rounds up to 2).
    for n in (2, 3):
        d = star(n, 2)
        assert embedding_dimension(d) == n + 1
        assert 2 * d.n - math.ceil(lct_datum(d)) == n + 1
    assert embedding_dimension(star(4, 2)) == 5 < 2 * 4 - 2


# ---------------------------------------------------------------------------
# Summary object


def test_summarize_is_consistent():
    s = summarize(star(3, 2))
    assert s.n == 3
    assert s.emb == 4
    assert s.branching_product == 3
    assert s.group_order == s.group_order_lattice == 4
    assert s.lct == Fraction(3, 2)
    assert s.ceil_lct == 2
    assert dict(s.child_counts) == {(1, 2, 3): 3}
    factors = dict(s.floor_factors)
    assert factors[(1, 2, 3)] == 2
    assert factors[(1,)] == 1


def test_child_counts_list_two_element_members():
    assert dict(summarize(star(2, 3)).child_counts) == {(1, 2): 2}
    assert dict(summarize(chain(3, 3, 3)).child_counts) == {
        (1, 2, 3, 4): 2,
        (1, 2, 3): 2,
        (1, 2): 2,
    }
