"""Exhaustive enumeration: counts, completeness, canonicality, determinism."""

from __future__ import annotations

import pickle

import pytest

from aqci import (
    EnumerationBudget,
    Member,
    SpecialDatum,
    canonical_form,
    class_count,
    enumerate_data,
    signature,
    validate,
)

from aqci.datum import class_order

from helpers import labeled_data, reference_class_node, reference_enumerate, reference_trees


def classes(n_max, max_ratio):
    return list(enumerate_data(EnumerationBudget(n_max=n_max, max_ratio=max_ratio)))


def test_class_counts_per_dimension():
    by_n = {}
    for d in classes(4, 3):
        by_n.setdefault(d.n, []).append(d)
    assert len(by_n[1]) == 1
    assert len(by_n[2]) == 3
    assert len(by_n[3]) == 9
    assert len(by_n[4]) == 36
    assert sum(len(v) for v in by_n.values()) == 49


def test_class_counts_with_binary_ratios():
    by_n = {}
    for d in classes(4, 2):
        by_n.setdefault(d.n, []).append(d)
    assert len(by_n[1]) == 1
    assert len(by_n[2]) == 2
    assert len(by_n[3]) == 4
    assert len(by_n[4]) == 10


def test_every_emitted_datum_is_valid():
    for d in classes(4, 3):
        assert validate(d).ok


@pytest.mark.parametrize("n_max, max_ratio", [(7, 3), (5, 5), (4, 8)])
def test_class_datum_builds_the_normal_form(n_max, max_ratio):
    # `class_datum` (which yields every enumerated datum) sets its members
    # as built, so they must already be what the public constructors give.
    for d in classes(n_max, max_ratio):
        rebuilt = SpecialDatum(d.n, tuple(Member(m.elements, m.weight) for m in d.members))
        assert d == rebuilt
        assert hash(d) == hash(rebuilt)
        assert repr(d) == repr(rebuilt)
        for m in d.members:
            assert type(m.elements) is tuple
            assert all(type(e) is int for e in m.elements)
            assert type(m.weight) is int
        assert pickle.loads(pickle.dumps(d)) == d


def test_emitted_data_are_canonical_and_distinct():
    seen = set()
    for d in classes(4, 3):
        canon, _ = canonical_form(d)
        assert canon == d
        sig = signature(d)
        assert sig not in seen
        seen.add(sig)


@pytest.mark.parametrize("n,max_ratio", [(1, 3), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_enumeration_is_complete_against_labeled_search(n, max_ratio):
    # Every valid labeled family must be isomorphic to exactly one emitted
    # class, and every class must be hit.
    brute = {signature(d) for d in labeled_data(n, max_ratio)}
    emitted = {signature(d) for d in classes(n, max_ratio) if d.n == n}
    assert emitted == brute


def test_enumeration_order_is_deterministic():
    first = classes(4, 3)
    second = classes(4, 3)
    assert first == second


@pytest.mark.parametrize("n_max,max_ratio", [(7, 3), (9, 2), (6, 4), (5, 5), (5, 8)])
def test_enumeration_keeps_the_tuple_tree_order(n_max, max_ratio):
    budget = EnumerationBudget(n_max, max_ratio)
    assert list(enumerate_data(budget)) == list(reference_enumerate(budget))


def _same_leaf_orders(leaves, max_ratio):
    """The class nodes of one leaf count's trees, in tuple order and in class order."""
    by_tuple = [reference_class_node(t) for t in sorted(reference_trees(leaves, max_ratio))]
    return by_tuple, sorted(by_tuple, key=class_order)


# The first leaf count at which the tuple order and the class order sort two
# trees of one max_ratio differently; the enumeration module's docstring
# reads its budgets off these.
FIRST_DISAGREEMENT = {2: 8, 3: 6, 4: 5, 5: 5, 6: 5, 7: 5, 8: 5}


@pytest.mark.parametrize("max_ratio,leaves", sorted(FIRST_DISAGREEMENT.items()))
def test_tree_orders_first_disagree_at_the_documented_leaf_count(max_ratio, leaves):
    for below in range(1, leaves):
        by_tuple, by_class = _same_leaf_orders(below, max_ratio)
        assert by_tuple == by_class, below
    by_tuple, by_class = _same_leaf_orders(leaves, max_ratio)
    assert by_tuple != by_class


def test_budget_is_monotone():
    small = {signature(d) for d in classes(3, 2)}
    big = {signature(d) for d in classes(4, 3)}
    assert small <= big


@pytest.mark.parametrize("n_max,max_ratio", [(n, r) for n in range(1, 7) for r in (1, 2, 3)] + [(7, 2)])
def test_class_count_equals_the_enumeration(n_max, max_ratio):
    assert class_count(EnumerationBudget(n_max, max_ratio)) == len(classes(n_max, max_ratio))


def test_class_count_past_the_enumerated_budgets():
    assert [class_count(EnumerationBudget(n, 3)) for n in range(4, 10)] == [
        49, 193, 844, 3_859, 18_493, 91_147,
    ]
    assert [class_count(EnumerationBudget(n, 2)) for n in (4, 5)] == [17, 41]


def test_class_count_with_a_ceiling_stops_past_it():
    assert class_count(EnumerationBudget(9, 3), ceiling=91_147) == 91_147
    assert class_count(EnumerationBudget(9, 3), ceiling=20_000) == 91_147
    assert class_count(EnumerationBudget(8, 3), ceiling=1_000) == 3_859
    assert class_count(EnumerationBudget(10**9, 3), ceiling=20_000) == 91_147
    assert class_count(EnumerationBudget(10**9, 1), ceiling=20_000) == 10**9
