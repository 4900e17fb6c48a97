"""Axiom validation, structural operations, isomorphism, and serialization."""

from __future__ import annotations

import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqci import (
    DatumFormatError,
    InvalidDatumError,
    Member,
    SpecialDatum,
    apply_permutation,
    canonical_form,
    children,
    find_closure_power,
    floor_factor_product,
    from_json,
    group_order,
    group_order_lattice,
    is_connected,
    is_isomorphic,
    lct_datum,
    make_datum,
    maximal_elements,
    monomial_ideal,
    multiplicity,
    reduce,
    require_valid,
    restrict,
    scale,
    signature,
    summarize,
    to_dot,
    to_json,
    validate,
)
from aqci.datum import (
    BAD_DIMENSION,
    DUPLICATE_MEMBER,
    ELEMENT_RANGE,
    EMPTY_MEMBER,
    MAXIMAL_WEIGHT,
    MISSING_SINGLETON,
    NO_MEMBERS,
    NODE_RATIO,
    NONPOSITIVE_WEIGHT,
    NOT_LAMINAR,
    SIBLING_WEIGHTS,
    WEIGHT_DIVISIBILITY,
    WEIGHT_ORDER,
    _scan,
    member_forest,
)

from helpers import chain, star, two_stars


def loose_points(n):
    """Singletons only: every point is its own maximal member."""
    return make_datum(n, [((i,), 1) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Construction and normalization


def test_members_are_stored_in_canonical_order():
    d = make_datum(2, [((2,), 2), ((1, 2), 1), ((1,), 2)])
    assert [m.elements for m in d.members] == [(1,), (1, 2), (2,)]


def test_member_elements_are_sorted_and_deduplicated():
    m = Member((3, 1, 3, 2), 5)
    assert m.elements == (1, 2, 3)


def test_structural_equality_is_label_for_label():
    assert star(2, 2) == make_datum(2, [((1,), 2), ((2,), 2), ((1, 2), 1)])
    assert star(2, 2) != star(2, 3)


# ---------------------------------------------------------------------------
# Validation: valid examples


@pytest.mark.parametrize(
    "d",
    [
        loose_points(1),
        loose_points(4),
        star(2, 2),
        star(3, 5),
        two_stars(2, 3),
        chain(2, 3),
        chain(3, 3, 3),
        make_datum(
            4,
            [
                ((1, 2, 3, 4), 1),
                ((1, 2), 2),
                ((3, 4), 2),
                ((1,), 4),
                ((2,), 4),
                ((3,), 6),
                ((4,), 6),
            ],
        ),
    ],
)
def test_valid_examples_pass(d):
    report = validate(d)
    assert report.ok, report
    require_valid(d)  # should not raise


# ---------------------------------------------------------------------------
# Validation: each failure kind is reported


def test_bad_dimension_and_no_members():
    report = validate(make_datum(0, []))
    assert BAD_DIMENSION in report.kinds()
    assert NO_MEMBERS in report.kinds()


def test_empty_member():
    report = validate(make_datum(2, [((), 1), ((1,), 1), ((2,), 1)]))
    assert EMPTY_MEMBER in report.kinds()


def test_element_out_of_range():
    report = validate(make_datum(2, [((1, 5), 1), ((1,), 2), ((2,), 2)]))
    assert ELEMENT_RANGE in report.kinds()


def test_nonpositive_weight():
    for w in (0, -3):
        report = validate(make_datum(1, [((1,), w)]))
        assert NONPOSITIVE_WEIGHT in report.kinds()


def test_duplicate_member_same_weight():
    d = SpecialDatum(2, (Member((1, 2), 1), Member((1, 2), 1), Member((1,), 2), Member((2,), 2)))
    report = validate(d)
    assert DUPLICATE_MEMBER in report.kinds()


def test_duplicate_member_different_weight():
    d = make_datum(2, [((1, 2), 1), ((1, 2), 2), ((1,), 4), ((2,), 4)])
    report = validate(d)
    assert DUPLICATE_MEMBER in report.kinds()


def test_missing_singleton():
    report = validate(make_datum(2, [((1, 2), 1), ((1,), 2)]))
    assert MISSING_SINGLETON in report.kinds()


def _missing(report):
    return [(v.message, v.members) for v in report.violations if v.kind == MISSING_SINGLETON]


def test_isolated_missing_singletons_are_reported_one_by_one():
    report = validate(make_datum(5, [((1,), 1), ((3,), 1), ((5,), 1)]))
    assert report.kinds() == (MISSING_SINGLETON, MISSING_SINGLETON)
    assert _missing(report) == [
        ("singleton {2} is missing", ((2,),)),
        ("singleton {4} is missing", ((4,),)),
    ]


def test_missing_singletons_are_reported_per_maximal_run():
    # Labels 0 and 12 leave the ground set and end no run.
    d = make_datum(10, [((1,), 1), ((4,), 1), ((8,), 1), ((0,), 1), ((12,), 1)])
    assert _missing(validate(d)) == [
        ("singletons {2} to {3} are missing", ((2,), (3,))),
        ("singletons {5} to {7} are missing", ((5,), (7,))),
        ("singletons {9} to {10} are missing", ((9,), (10,))),
    ]
    assert _missing(validate(make_datum(3, [((1, 2, 3), 1)]))) == [
        ("singletons {1} to {3} are missing", ((1,), (3,))),
    ]


@pytest.mark.parametrize("n", [10**6, 10**9])
def test_validate_time_follows_the_members_not_n(n):
    start = time.perf_counter()
    report = validate(make_datum(n, [((1,), 1)]))
    assert time.perf_counter() - start < 0.5
    assert _missing(report) == [(f"singletons {{2}} to {{{n}}} are missing", ((2,), (n,)))]
    assert report.kinds() == (MISSING_SINGLETON,)


def test_not_laminar():
    report = validate(
        make_datum(
            3,
            [((1, 2), 1), ((2, 3), 1), ((1,), 2), ((2,), 2), ((3,), 2)],
        )
    )
    assert NOT_LAMINAR in report.kinds()


def test_maximal_weight_not_one():
    report = validate(make_datum(2, [((1, 2), 3), ((1,), 6), ((2,), 6)]))
    assert MAXIMAL_WEIGHT in report.kinds()


def test_weight_must_strictly_increase_inward():
    # Equal weight inside is as wrong as a smaller one.
    report = validate(make_datum(2, [((1, 2), 1), ((1,), 1), ((2,), 1)]))
    assert WEIGHT_ORDER in report.kinds()


def test_weight_divisibility():
    report = validate(
        make_datum(
            3,
            [((1, 2, 3), 1), ((1, 2), 2), ((1,), 3), ((2,), 3), ((3,), 2)],
        )
    )
    assert WEIGHT_DIVISIBILITY in report.kinds()


def test_sibling_weights_differ():
    report = validate(make_datum(2, [((1, 2), 1), ((1,), 2), ((2,), 4)]))
    assert SIBLING_WEIGHTS in report.kinds()


def test_all_violations_reported_together():
    # Missing singleton for 2, non-laminar pair, and a bad maximal weight.
    report = validate(
        make_datum(
            3,
            [((1, 2), 2), ((2, 3), 1), ((1,), 4), ((3,), 2)],
        )
    )
    kinds = set(report.kinds())
    assert MISSING_SINGLETON in kinds
    assert NOT_LAMINAR in kinds
    assert MAXIMAL_WEIGHT in kinds


def test_require_valid_raises_with_report():
    bad = make_datum(2, [((1, 2), 1), ((1,), 2)])
    with pytest.raises(InvalidDatumError) as info:
        require_valid(bad)
    assert not info.value.report.ok


def test_single_point_datum_is_valid():
    report = validate(loose_points(1))
    assert report.ok


# ---------------------------------------------------------------------------
# Validation never crashes, via exhaustive mutations and random candidates


def _validates_as_the_scan(d: SpecialDatum) -> None:
    """The one-pass proof of validity never changes a report."""
    assert validate(d) == _scan(d), d


def test_single_field_mutations_never_crash():
    base = chain(2, 3)
    n = base.n
    for idx in range(len(base.members)):
        for w in range(-1, 9):
            members = list(base.members)
            members[idx] = Member(members[idx].elements, w)
            _validates_as_the_scan(SpecialDatum(n, tuple(members)))
        # drop the member entirely
        dropped = tuple(m for i, m in enumerate(base.members) if i != idx)
        _validates_as_the_scan(SpecialDatum(n, dropped))
        # swap in an arbitrary element set
        for elems in itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), k) for k in range(1, n + 1)
        ):
            members = list(base.members)
            members[idx] = Member(elems, members[idx].weight)
            _validates_as_the_scan(SpecialDatum(n, tuple(members)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-1, max_value=4),
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=-1, max_value=5), min_size=0, max_size=4),
            st.integers(min_value=-2, max_value=9),
        ),
        min_size=0,
        max_size=6,
    ),
)
def test_validate_handles_arbitrary_candidates(n, raw_sets):
    d = make_datum(n, [(tuple(e), w) for e, w in raw_sets])
    report = validate(d)
    assert isinstance(report.ok, bool)
    for v in report.violations:
        assert v.kind
        assert v.message
    _validates_as_the_scan(d)


# ---------------------------------------------------------------------------
# Containment structure


def test_children_of_root():
    d = chain(3, 3, 3)
    idx = {m.elements: i for i, m in enumerate(d.members)}
    root_kids = children(d, idx[(1, 2, 3, 4)])
    assert [d.elements_of(k) for k in root_kids] == [(1, 2, 3), (4,)]
    leaf_kids = children(d, idx[(4,)])
    assert leaf_kids == []


def test_children_partition_the_parent():
    for d in (star(3, 2), chain(2, 2), two_stars(2, 3), chain(3, 3, 3)):
        for j in range(len(d.members)):
            kids = children(d, j)
            got = sorted(e for k in kids for e in d.elements_of(k))
            if kids:
                assert got == sorted(d.elements_of(j))


def test_maximal_elements_and_connectivity():
    assert len(maximal_elements(star(3, 2))) == 1
    assert is_connected(star(3, 2))
    assert len(maximal_elements(two_stars(2, 2))) == 2
    assert not is_connected(two_stars(2, 2))
    assert len(maximal_elements(loose_points(3))) == 3


# ---------------------------------------------------------------------------
# Structural operations


def test_restrict_relabels_and_rescales():
    d = two_stars(2, 3)
    idx = {m.elements: i for i, m in enumerate(d.members)}
    sub = restrict(d, idx[(3, 4)])
    assert sub == star(2, 3)
    report = validate(sub)
    assert report.ok


def test_restrict_on_nested_member():
    d = chain(3, 3, 3)
    idx = {m.elements: i for i, m in enumerate(d.members)}
    sub = restrict(d, idx[(1, 2, 3)])
    assert sub == chain(3, 3)


def test_reduce_star_gives_loose_points():
    d = star(3, 4)
    idx = {m.elements: i for i, m in enumerate(d.members)}
    assert reduce(d, idx[(1, 2, 3)]) == loose_points(3)


def test_reduce_chain_peels_one_level():
    d = chain(3, 3, 3)
    idx = {m.elements: i for i, m in enumerate(d.members)}
    red = reduce(d, idx[(1, 2, 3, 4)])
    expected = make_datum(
        4,
        [((1, 2, 3), 1), ((1, 2), 3), ((1,), 9), ((2,), 9), ((3,), 3), ((4,), 1)],
    )
    assert red == expected
    assert validate(red).ok


def test_reduce_rejects_singletons_and_inner_members():
    d = chain(2, 2)
    idx = {m.elements: i for i, m in enumerate(d.members)}
    with pytest.raises(ValueError):
        reduce(d, idx[(3,)])
    with pytest.raises(ValueError):
        reduce(d, idx[(1, 2)])


def test_scale_multiplies_nonmaximal_weights():
    assert scale(star(3, 2), 3) == star(3, 6)
    d = chain(2, 2)
    scaled = scale(d, 2)
    expected = make_datum(3, [((1, 2, 3), 1), ((1, 2), 4), ((1,), 8), ((2,), 8), ((3,), 4)])
    assert scaled == expected
    assert validate(scaled).ok


def test_scale_rejects_disconnected_and_bad_factor():
    with pytest.raises(ValueError):
        scale(two_stars(2, 2), 2)
    with pytest.raises(ValueError):
        scale(star(2, 2), 0)


def test_scale_by_one_is_identity():
    d = star(3, 2)
    assert scale(d, 1) == d


# ---------------------------------------------------------------------------
# Monomial ideal


def test_monomial_ideal_generators():
    ideal = monomial_ideal(star(2, 3))
    assert ideal.n == 2
    assert ideal.generators == ((0, 3), (1, 1), (3, 0))


def test_monomial_ideal_deduplicates():
    ideal = monomial_ideal(loose_points(2))
    assert ideal.generators == ((0, 1), (1, 0))


def test_monomial_ideal_rejects_bad_generators():
    from aqci import MonomialIdeal

    with pytest.raises(ValueError, match="the zero vector"):
        MonomialIdeal(2, ((0, 0),))
    with pytest.raises(ValueError, match=r"\(1, -1\) has a negative exponent"):
        MonomialIdeal(2, ((1, -1),))
    with pytest.raises(ValueError, match=r"\(1, 0, 0\) does not have 2 coordinates"):
        MonomialIdeal(2, ((1, 0, 0),))
    # Checked per generator in sorted order: the length, then the signs.
    with pytest.raises(ValueError, match=r"\(0, -1, 0\) does not have 2 coordinates"):
        MonomialIdeal(2, ((0, -1, 0),))
    with pytest.raises(ValueError, match=r"\(0, -1\) has a negative exponent"):
        MonomialIdeal(2, ((0, -1), (0, 0)))
    assert MonomialIdeal(2, [["1", 2], (1, 2)]).generators == ((1, 2),)


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms


def test_canonical_form_is_permutation_invariant():
    d = two_stars(2, 3)
    canon, _ = canonical_form(d)
    for perm in itertools.permutations(range(1, 5)):
        moved = apply_permutation(d, perm)
        got, back = canonical_form(moved)
        assert got == canon
        assert apply_permutation(moved, back) == got


@pytest.mark.parametrize("perm", [(1, 1, 2), (0, 1, 2), (1, 2), (1, 2, 3, 4), (2, 3, 4)])
def test_apply_permutation_refuses_what_is_not_a_permutation(perm):
    with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
        apply_permutation(star(3, 2), perm)


def test_apply_permutation_refuses_elements_outside_the_ground_set():
    for elements in ((0, 1), (1, 4)):
        d = make_datum(3, [(elements, 1), ((1,), 2), ((3,), 1)])
        with pytest.raises(ValueError, match=r"element [04] is not in 1\.\.3"):
            apply_permutation(d, (2, 3, 1))


@pytest.mark.parametrize(
    "sets, match",
    [
        # Singletons missing: the walk would name only 1 (only 1 and 3 on
        # the third), but the member forest refuses the member with one
        # child first.
        pytest.param([((1, 2, 3), 1), ((1,), 2)], "has one child", id="sets0"),
        pytest.param([((1, 2), 1), ((1,), 2)], "has one child", id="sets1"),
        pytest.param([((0, 1), 1), ((1,), 2), ((3,), 1)], "has one child", id="sets2"),
        # A leaf n + 1, and a leaf 0 under a member with two children.
        pytest.param(
            [((1, 2, 4), 1), ((1,), 2), ((2,), 2), ((4,), 2)],
            r"is not a permutation of 1\.\.3",
            id="sets3",
        ),
        pytest.param(
            [((0, 1), 1), ((0,), 2), ((1,), 2), ((3,), 1)],
            r"is not a permutation of 1\.\.3",
            id="sets4",
        ),
    ],
)
def test_canonical_form_refuses_a_walk_that_is_not_a_permutation(sets, match):
    with pytest.raises(ValueError, match=match):
        canonical_form(make_datum(3, sets))


def _isomorphic_to_itself(d):
    return is_isomorphic(d, d)


# Functions that read the member forest, and candidates that have none.
_FOREST_READERS = [
    canonical_form,
    signature,
    _isomorphic_to_itself,
    multiplicity,
    lct_datum,
    group_order_lattice,
    summarize,
]
_NO_FOREST = [
    make_datum(2, [((), 1), ((1,), 2), ((2,), 2)]),  # an empty member
    make_datum(2, [((1, 2), 0), ((1,), 2), ((2,), 2)]),  # a weight-0 parent
    make_datum(0, []),
    make_datum(1, []),
]
_NO_SINGLETONS = [make_datum(0, []), make_datum(1, []), make_datum(2, [((1, 2), 1)])]


@pytest.mark.parametrize(
    "fn, d",
    [(fn, d) for fn in _FOREST_READERS for d in _NO_FOREST]
    + [(find_closure_power, d) for d in _NO_SINGLETONS],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_structural_functions_refuse_malformed_candidates(fn, d):
    # A refusal with a reason, not an IndexError or ZeroDivisionError from
    # inside the forest, the trace walk or the singleton weights.
    with pytest.raises(ValueError):
        fn(d)


# Childless members of more than one element: their singletons are missing.
_CHILDLESS_BLOCKS = [
    make_datum(2, [((1, 2), 1)]),
    make_datum(3, [((1, 2, 3), 1), ((1, 2), 2), ((3,), 2)]),
]
# Members that are not nested: two that overlap, and a repeated element set.
_NOT_NESTED = [
    make_datum(3, [((1, 2), 1), ((2, 3), 1), ((1,), 2), ((2,), 2), ((3,), 2)]),
    make_datum(2, [((1, 2), 1), ((1, 2), 1), ((1,), 2), ((2,), 2)]),
]
# A member with one child: the singleton {2} is missing.
_ONE_CHILD = [make_datum(2, [((1, 2), 1), ((1,), 2)])]
_STRUCTURAL = (
    multiplicity,
    lct_datum,
    group_order,
    group_order_lattice,
    floor_factor_product,
    summarize,
    signature,
)


@pytest.mark.parametrize(
    "fn, d",
    [(fn, d) for fn in _STRUCTURAL for d in _CHILDLESS_BLOCKS]
    + [(fn, d) for fn in _STRUCTURAL for d in _NOT_NESTED]
    + [(fn, d) for fn in _STRUCTURAL for d in _ONE_CHILD],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_structural_functions_refuse_a_childless_block(fn, d):
    # The member forest would take the block for a leaf: an exact
    # multiplicity 1 on the first candidate, 2 and |G| = 4 on the second.
    # Of the members that are not nested, the overlapping pair would give
    # lct_datum 1 against lct_lp 3/2, and the repeated set group_order 1
    # against group_order_lattice 2.  The member with one child would give
    # lct_datum, group_order and an exact multiplicity 1.
    if d in _CHILDLESS_BLOCKS:
        match = "no children"
    else:
        match = "one child" if d in _ONE_CHILD else "not nested"
    with pytest.raises(ValueError, match=match):
        fn(d)


def test_a_refused_candidate_interns_no_class_node():
    # The repeated element set would intern a class node of ratio 1, and
    # the member with one child a class node with one kid.
    interned = len(NODE_RATIO)
    for d in _NOT_NESTED:
        with pytest.raises(ValueError, match="not nested"):
            member_forest(d)
    for d in _ONE_CHILD:
        with pytest.raises(ValueError, match="one child"):
            member_forest(d)
    assert len(NODE_RATIO) == interned


def test_is_isomorphic_matches_relabelings():
    a = make_datum(2, [((1, 2), 1), ((1,), 2), ((2,), 2)])
    b = apply_permutation(a, (2, 1))
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, star(2, 3))
    assert not is_isomorphic(star(2, 2), loose_points(2))


def test_signature_distinguishes_ratios_not_labels():
    assert signature(star(3, 2)) != signature(star(3, 4))
    assert signature(two_stars(2, 3)) == signature(two_stars(3, 2))


def test_canonical_form_is_idempotent():
    d = apply_permutation(chain(3, 2), (3, 1, 2))
    canon, _ = canonical_form(d)
    again, _ = canonical_form(canon)
    assert again == canon


# ---------------------------------------------------------------------------
# Serialization


def test_json_round_trip():
    for d in (loose_points(2), star(3, 4), two_stars(2, 3), chain(3, 3, 3)):
        assert from_json(to_json(d)) == d


def test_json_is_sorted_and_stable():
    text = to_json(star(2, 2))
    assert text == to_json(from_json(text))
    obj = json.loads(text)
    assert set(obj) == {"n", "sets"}


def test_from_json_rejects_malformed_json():
    with pytest.raises(DatumFormatError):
        from_json("{not json")


@pytest.mark.parametrize(
    "payload",
    [
        "[]",
        '{"n": 2}',
        '{"n": 2, "sets": [], "extra": 1}',
        '{"n": "2", "sets": []}',
        '{"n": true, "sets": []}',
        '{"n": 2, "sets": [{"elements": [1], "weight": "2"}]}',
        '{"n": 2, "sets": [{"elements": [], "weight": 2}]}',
        '{"n": 2, "sets": [{"elements": [1, 1], "weight": 2}]}',
        '{"n": 2, "sets": [{"elements": [1.5], "weight": 2}]}',
        '{"n": 2, "sets": [{"weight": 2}]}',
        '{"n": 2, "sets": [[1, 2]]}',
        '{"n": 3, "sets": [{"elements": [1], "weight": 1}]}',
    ],
)
def test_from_json_rejects_wrong_shapes(payload):
    with pytest.raises(DatumFormatError):
        from_json(payload)


def test_from_json_accepts_invalid_axioms():
    # Parsing is separate from axiom checking.
    d = from_json('{"n": 2, "sets": [{"elements": [1, 2], "weight": 1}, {"elements": [1], "weight": 2}]}')
    assert not validate(d).ok


# ---------------------------------------------------------------------------
# DOT export


def test_to_dot_structure():
    d = star(2, 2)
    dot = to_dot(d)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    assert dot.count("label=") == 3
    assert "rank=same" in dot


def test_to_dot_edge_count_matches_forest():
    for d in (chain(3, 3, 3), two_stars(2, 2), loose_points(3)):
        dot = to_dot(d)
        roots = len(maximal_elements(d))
        assert dot.count("->") == len(d.members) - roots
