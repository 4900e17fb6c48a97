"""Structural invariants on class nodes against the label-level recursions.

The package computes every structural invariant once per isomorphism class
of subtree (`datum.member_forest`, `datum.ClassMemo`); `helpers.py` keeps
the recursions that rebuild the restricted and reduced data at every step.
"""

from __future__ import annotations

import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqci import (
    EnumerationBudget,
    Member,
    SpecialDatum,
    apply_permutation,
    branching_product,
    canonical_form,
    children,
    edge_count_identity,
    enumerate_data,
    find_closure_power,
    floor_factor_product,
    group_generators,
    group_order,
    group_order_lattice,
    is_isomorphic,
    lct_datum,
    lct_lp,
    make_datum,
    maximal_elements,
    monomial_ideal,
    multiplicity,
    multiplicity_lower_bound,
    multiplicity_upper_bound,
    reduce,
    restrict,
    signature,
    summarize,
    validate,
)
from aqci import datum
from aqci.datum import _scan, class_datum, class_order, member_forest

from helpers import (
    chain,
    reference_branching_product,
    reference_children,
    reference_floor_factor,
    reference_floor_factor_product,
    reference_group_generators,
    reference_group_order,
    reference_lct_datum,
    reference_maximal_elements,
    reference_multiplicity,
    reference_multiplicity_lower_bound,
    reference_multiplicity_upper_bound,
    reference_top_child_weight,
    reference_validate,
    star,
    subgroup_order,
)

CLASSES = list(enumerate_data(EnumerationBudget(n_max=5, max_ratio=3)))
DEEP_N = 1000
DEEP = {
    "chain": lambda: chain(*[2] * (DEEP_N - 1)),
    "star": lambda: star(DEEP_N, 2),
}
INVARIANTS = (
    lct_datum,
    group_order,
    floor_factor_product,
    branching_product,
    edge_count_identity,
    multiplicity_lower_bound,
    multiplicity_upper_bound,
    signature,
)


def _class_values(d) -> tuple:
    """Every label-free structural value of d, the multiplicity without its trace."""
    result = multiplicity(d)
    return tuple(fn(d) for fn in INVARIANTS) + (
        canonical_form(d)[0],
        result.status,
        result.value,
        result.lower,
        result.upper,
    )


def test_the_class_set_is_the_documented_one():
    assert len(CLASSES) == 193


def test_every_invariant_matches_the_label_level_recursion():
    for d in CLASSES:
        assert lct_datum(d) == reference_lct_datum(d), d
        assert group_order(d) == reference_group_order(d), d
        assert branching_product(d) == reference_branching_product(d), d
        assert floor_factor_product(d) == reference_floor_factor_product(d), d
        assert multiplicity_lower_bound(d) == reference_multiplicity_lower_bound(d), d
        assert multiplicity_upper_bound(d) == reference_multiplicity_upper_bound(d), d
        assert multiplicity(d) == reference_multiplicity(d), d
        roots = reference_maximal_elements(d)
        assert edge_count_identity(d) == (
            sum(
                len(reference_children(d, j)) - 1
                for j in range(len(d.members))
                if len(d.elements_of(j)) >= 2
            ),
            d.n - len(roots),
        )


def test_the_classes_exercise_every_rule_and_an_interval():
    rules = {s.rule for d in CLASSES for s in multiplicity(d).trace}
    assert rules == {
        "dimension-one",
        "component-product",
        "reduce-equality",
        "hypersurface",
        "interval-bounds",
        "interval-pinned",
    }
    assert any(not multiplicity(d).is_exact for d in CLASSES)


def test_per_member_factors_match_the_restricted_data():
    for d in CLASSES:
        s = summarize(d)
        for j, m in enumerate(d.members):
            sub = restrict(d, j)
            assert s.floor_factors[j] == (m.elements, reference_floor_factor(sub))
            assert s.child_weight_factors[j] == (m.elements, reference_top_child_weight(sub))


def test_forest_links_match_pairwise_containment():
    for d in CLASSES:
        assert maximal_elements(d) == reference_maximal_elements(d)
        for j in range(len(d.members)):
            assert children(d, j) == reference_children(d, j)


def test_group_generators_match_pairwise_containment():
    # One triple per forest edge past a first child against the all-pairs
    # generators of pairwise containment: one subgroup, whichever set (or
    # both) spans it.
    rng = random.Random(0)
    for d in CLASSES:
        if d.n > 4:
            continue
        perm = list(range(1, d.n + 1))
        rng.shuffle(perm)
        for x in (d, apply_permutation(d, tuple(perm))):
            new, old = group_generators(x), reference_group_generators(x)
            order = subgroup_order(new, x.n)
            assert subgroup_order(old, x.n) == order, x
            assert subgroup_order(new + old, x.n) == order, x


def test_class_order_is_signature_order():
    nodes = sorted({member_forest(d).root_nodes[0] for d in CLASSES if len(maximal_elements(d)) == 1})
    by_tuple = sorted(nodes, key=lambda x: signature(class_datum([x])))
    assert sorted(nodes, key=class_order) == by_tuple


def test_class_datum_is_the_canonical_form():
    for d in CLASSES:
        forest = member_forest(d)
        assert class_datum(forest.root_nodes) == canonical_form(d)[0]
        for j in forest.roots:
            sub = restrict(d, j)
            assert class_datum([forest.node[j]]) == canonical_form(sub)[0]
            if forest.kids[j]:
                reduced = reduce(sub, maximal_elements(sub)[0])
                kids = [forest.node[k] for k in forest.kids[j]]
                assert class_datum(kids) == canonical_form(reduced)[0]


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(CLASSES) - 1), seed=st.integers(0, 2**32 - 1))
def test_invariants_do_not_see_a_relabeling(index, seed):
    d = CLASSES[index]
    perm = list(range(1, d.n + 1))
    random.Random(seed).shuffle(perm)
    moved = apply_permutation(d, tuple(perm))
    assert _class_values(moved) == _class_values(d)
    assert is_isomorphic(moved, d)
    # The trace is not a class function: sibling sub-traces follow labels.
    assert multiplicity(moved).trace == reference_multiplicity(moved).trace


def _label_level_values(d) -> tuple:
    """The label-level routes of d, with the structural multiplicity and bounds."""
    result = multiplicity(d)
    return (
        validate(d).ok,
        lct_lp(monomial_ideal(d)),
        group_order_lattice(d),
        find_closure_power(d),
        edge_count_identity(d),
        result.status,
        result.value,
        result.lower,
        result.upper,
        multiplicity_lower_bound(d),
        multiplicity_upper_bound(d),
    )


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_label_level_routes_do_not_see_a_relabeling(seed):
    rng = random.Random(seed)
    for d in CLASSES:
        perm = list(range(1, d.n + 1))
        rng.shuffle(perm)
        moved = apply_permutation(d, tuple(perm))
        assert _label_level_values(moved) == _label_level_values(d), (d, perm)


@pytest.mark.parametrize("name", DEEP)
def test_deep_inputs_run_without_recursion(name):
    d = DEEP[name]()
    times = {}
    values = {}
    for fn in INVARIANTS + (canonical_form, multiplicity, validate):
        start = time.perf_counter()
        values[fn.__name__] = fn(d)
        times[fn.__name__] = time.perf_counter() - start
    n = DEEP_N
    assert values["validate"].ok
    if name == "chain":
        # Every level splits off one singleton with ratio 2.
        assert values["group_order"] == 2 ** (n * (n - 1) // 2)
        assert values["lct_datum"] == 1
        assert values["branching_product"] == 2 ** (n - 1)
        assert values["floor_factor_product"] == 2 ** (n - 1)
        e = 2 ** (n - 1)
        depth, sig = 0, values["signature"][0]
        while sig != (0,):
            sig = sig[2][1]
            depth += 1
        assert depth == n - 1
    else:
        assert values["group_order"] == 2 ** (n - 1)
        assert values["lct_datum"] == n // 2
        assert values["branching_product"] == n
        assert values["floor_factor_product"] == 2
        e = 2
    assert values["edge_count_identity"] == (n - 1, n - 1)
    result = values["multiplicity"]
    assert result.is_exact and result.value == e
    assert values["multiplicity_lower_bound"] == values["multiplicity_upper_bound"] == e
    assert result.trace[0].rule == "reduce-equality"
    assert result.trace[0].member == tuple(range(1, n + 1))
    assert len(result.trace) == (n + 2 if name == "star" else 3 * n - 2)
    canon, _ = values["canonical_form"]
    assert canonical_form(canon)[0] == canon
    print(name, {k: round(v, 3) for k, v in times.items()})


def test_one_datum_builds_one_forest(monkeypatch):
    # Every structural function of the benchmark sweep, on one relabeled datum.
    builds = []
    links = datum._links
    monkeypatch.setattr(datum, "_links", lambda d: builds.append(d) or links(d))
    member_forest.cache_clear()
    d = apply_permutation(chain(3, 2, 2), (3, 1, 4, 2))
    for fn in INVARIANTS + (
        canonical_form,
        multiplicity,
        validate,
        group_order_lattice,
        find_closure_power,
    ):
        fn(d)
    lct_lp(monomial_ideal(d))
    assert builds == [d]


def test_validate_and_the_forest_share_one_parent_index():
    datum._parents.cache_clear()
    member_forest.cache_clear()
    d = apply_permutation(chain(3, 2, 2), (3, 1, 4, 2))
    assert validate(d).ok
    member_forest(d)
    children(d, 0)
    info = datum._parents.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 2, datum._FOREST_CACHE_SIZE)
    parent, nested = datum._parents(d)
    assert type(parent) is tuple and nested


def test_the_forest_cache_does_not_travel_with_the_datum():
    d = apply_permutation(chain(2, 3, 2), (2, 4, 1, 3))
    before = pickle.dumps(d)
    member_forest(d)
    assert pickle.dumps(d) == before


def test_a_datum_hashes_its_members_once(monkeypatch):
    # The caches keyed by datum hash it on every lookup.
    d = apply_permutation(chain(2, 3, 2), (2, 4, 1, 3))
    first = hash(d)
    hashed = []
    member_hash = Member.__hash__

    def counting(m):
        hashed.append(m)
        return member_hash(m)

    monkeypatch.setattr(Member, "__hash__", counting)
    assert hash(d) == first
    member_forest(d)
    assert hashed == []
    assert hash(d) == hash((d.n, d.members))
    monkeypatch.undo()
    same = SpecialDatum(d.n, tuple(reversed(d.members)))
    assert same == d and hash(same) == hash(d)
    assert pickle.loads(pickle.dumps(d)) == d and hash(pickle.loads(pickle.dumps(d))) == hash(d)
    assert SpecialDatum(d.n, d.members[1:]) != d


def test_validate_proves_every_class_valid_as_the_scan_does():
    rng = random.Random(1)
    classes = list(enumerate_data(EnumerationBudget(n_max=6, max_ratio=3)))
    assert len(classes) == 844
    for d in classes:
        perm = list(range(1, d.n + 1))
        rng.shuffle(perm)
        for x in (d, apply_permutation(d, tuple(perm))):
            assert validate(x) == _scan(x), x
            assert validate(x).ok, x


def _candidates():
    """Small candidates, laminar or not, with repeats and bad weights."""
    member = st.builds(
        lambda elems, w: Member(tuple(elems), w),
        st.lists(st.integers(0, 6), min_size=0, max_size=5, unique=True),
        st.integers(-1, 12),
    )
    return st.builds(
        lambda n, ms: SpecialDatum(n, tuple(ms)),
        st.integers(0, 5),
        st.lists(member, max_size=10),
    )


@settings(max_examples=400, deadline=None)
@given(d=_candidates())
def test_validate_matches_the_cubic_reference(d):
    assert validate(d) == reference_validate(d)


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, len(CLASSES) - 1), data=st.data())
def test_validate_matches_the_reference_on_perturbed_classes(index, data):
    d = CLASSES[index]
    members = list(d.members)
    j = data.draw(st.integers(0, len(members) - 1))
    elems = data.draw(st.lists(st.integers(1, d.n), min_size=1, max_size=d.n, unique=True))
    members[j] = Member(tuple(elems), data.draw(st.integers(1, 12)))
    candidate = SpecialDatum(d.n, tuple(members))
    assert validate(candidate) == reference_validate(candidate)


@pytest.mark.parametrize(
    "d",
    [
        # {3, 4} meets {1, 2, 3} without nesting, yet every weight is a proper
        # multiple of its owner's: only the one-owner test of the proof sees it.
        make_datum(4, [((1, 2, 3), 1), ((3, 4), 2), ((1,), 2), ((2,), 2), ((3,), 4), ((4,), 4)]),
        # Element 0 has no singleton, yet the singletons cover 1..n.
        make_datum(1, [((0, 1), 1), ((1,), 2)]),
    ],
)
def test_validate_refuses_what_one_step_of_the_proof_sees(d):
    assert not validate(d).ok
    assert validate(d) == _scan(d) == reference_validate(d)


def test_validate_sees_non_laminar_overlaps_in_order():
    d = make_datum(3, [((1, 2), 1), ((2, 3), 1), ((1,), 2), ((2,), 2), ((3,), 2), ((1, 3), 1)])
    assert validate(d) == reference_validate(d)
    assert validate(d).kinds().count("not-laminar") == 3
