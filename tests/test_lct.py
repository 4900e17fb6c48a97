"""Newton-polyhedron membership, log canonical thresholds, closure powers.

Every LP-backed answer is cross-checked against `brute_min_max`, which
enumerates exact solutions of small square systems and never touches the
simplex code.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqci import (
    EnumerationBudget,
    MonomialIdeal,
    apply_permutation,
    enumerate_data,
    find_closure_power,
    lct_datum,
    lct_lp,
    lp,
    maximal_elements,
    monomial_ideal,
    newton_contains,
)

from helpers import (
    brute_min_max,
    chain,
    multiplier_membership,
    reference_closure_is_power,
    reference_packing_lp,
    star,
    two_stars,
    vertex_closure_is_power,
)


def small_ideals():
    """A deterministic spread of ideals from enumerated families."""
    out = []
    for d in enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)):
        out.append(monomial_ideal(d))
    return out


# ---------------------------------------------------------------------------
# Newton polyhedron membership


def test_newton_contains_simple_cases():
    a = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
    inside, cert = newton_contains(a, (1, 1))
    assert inside
    assert cert is not None
    outside, nocert = newton_contains(a, (Fraction(1, 2), Fraction(1, 2)))
    assert not outside
    assert nocert is None


def test_newton_contains_respects_orthant_directions():
    a = MonomialIdeal(2, ((1, 0),))
    assert newton_contains(a, (5, 3))[0]
    assert not newton_contains(a, (Fraction(1, 2), 100))[0]


def test_newton_certificate_replays():
    a = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    for p in ((2, 1, 0), (1, 1, 1), (3, 3, 3), (Fraction(5, 2), Fraction(1, 2), 0)):
        inside, cert = newton_contains(a, p)
        assert inside
        total = Fraction(0)
        combo = [Fraction(0)] * a.n
        for i, lam in cert.coefficients.items():
            assert lam > 0
            total += lam
            for j in range(a.n):
                combo[j] += lam * a.generators[i][j]
        assert total == 1
        assert all(combo[j] <= Fraction(p[j]) for j in range(a.n))


def test_newton_contains_rejects_bad_points():
    a = MonomialIdeal(2, ((1, 0),))
    with pytest.raises(ValueError):
        newton_contains(a, (1,))
    with pytest.raises(ValueError):
        newton_contains(a, (-1, 0))


def test_newton_contains_matches_brute_enumeration():
    rng = random.Random(1)
    for a in small_ideals():
        for _ in range(4):
            p = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(a.n))
            expected = brute_min_max(a.generators, p) <= 0
            assert newton_contains(a, p)[0] == expected


# ---------------------------------------------------------------------------
# Threshold via the packing LP


def test_lct_lp_known_values():
    assert lct_lp(MonomialIdeal(1, ((1,),))) == 1
    assert lct_lp(MonomialIdeal(1, ((4,),))) == Fraction(1, 4)
    assert lct_lp(MonomialIdeal(2, ((1, 0), (0, 1)))) == 2
    assert lct_lp(MonomialIdeal(2, ((2, 0), (0, 3)))) == Fraction(5, 6)
    assert lct_lp(MonomialIdeal(3, ((1, 1, 1),))) == 1


def test_lct_lp_edges():
    with pytest.raises(ArithmeticError, match="zero ideal"):
        lct_lp(MonomialIdeal(2, ()))
    # Not m-primary: the packing bound comes from the coordinates the
    # generators reach.
    assert lct_lp(MonomialIdeal(3, ((1, 1, 0),))) == 1
    assert lct_lp(MonomialIdeal(2, ((0, 5),))) == Fraction(1, 5)


@pytest.mark.parametrize(
    "d",
    [chain(*[2] * 99), chain(*[3] * 79), star(200, 2)],
    ids=["chain-100-2", "chain-80-3", "star-200-2"],
)
def test_lct_lp_matches_the_recursion_on_deep_and_wide_data(d):
    assert lct_lp(monomial_ideal(d)) == lct_datum(d)


def test_lct_lp_matches_brute_enumeration():
    for a in small_ideals():
        u = brute_min_max(a.generators, [0] * a.n)
        assert u > 0
        assert lct_lp(a) == 1 / u


def test_primitive_columns_keep_the_value_and_every_pivot(monkeypatch):
    # lct_lp weighs generator g by gcd(g)*mu_g on the column g/gcd(g), at
    # cost -L/gcd(g): a positive rescaling of columns and of the objective,
    # so Bland's rule pivots on the same (row, column) pairs as the packing
    # LP on the generators as given, at cost -1 each.
    pivots = []
    pivot = lp._pivot

    def recording(tab, basis, obj, d, r, s):
        pivots.append((r, s))
        return pivot(tab, basis, obj, d, r, s)

    monkeypatch.setattr(lp, "_pivot", recording)
    rng = random.Random(5)
    classes = list(enumerate_data(EnumerationBudget(n_max=6, max_ratio=3)))
    assert len(classes) == 844
    for d in classes:
        perm = list(range(1, d.n + 1))
        rng.shuffle(perm)
        for x in (d, apply_permutation(d, tuple(perm))):
            a = monomial_ideal(x)
            pivots.clear()
            got = lct_lp(a)
            scaled = list(pivots)
            pivots.clear()
            want = reference_packing_lp(a, [1] * a.n)
            assert got == -want.value == lct_datum(x), x
            assert scaled == pivots, x


def _assert_certificate(a, p, cert):
    assert all(lam > 0 for lam in cert.coefficients.values())
    assert sum(cert.coefficients.values()) == 1
    for j in range(a.n):
        assert sum(lam * a.generators[i][j] for i, lam in cert.coefficients.items()) <= p[j]


def _reference_membership(a, p):
    """(p in Newt(a), convex weights) by the packing LP on the generators as given.

    At rhs D*p, with D the lcm of p's denominators, p is inside exactly when
    max sum(mu) >= D, and the weights are mu/sum(mu).
    """
    p = [Fraction(x) for x in p]
    big = math.lcm(*(x.denominator for x in p))
    sol = reference_packing_lp(a, [int(x * big) for x in p])
    total = -sol.value
    if total < big:
        return False, None
    return True, {i: Fraction(mu, sol.d) / total for i, mu in enumerate(sol.x) if mu}


def test_newton_contains_on_an_ideal_without_generators():
    # Newt of the zero ideal is empty.  The packing LP still has its n
    # slack rows, and its optimum 0 is below D for every point.
    a = MonomialIdeal(2, ())
    for p in [(0, 0), (1, 1), (Fraction(1, 2), 3)]:
        assert newton_contains(a, p) == (False, None)


def test_newton_certificates_hold_on_a_deep_chain():
    # chain(3, ..., 3) with n = 12: weights up to 3^11, so gcd(g) is far
    # from 1 and the weights the LP returns must be divided back by it.
    a = monomial_ideal(chain(*[3] * 11))
    u = 1 / lct_lp(a)
    inside = [(u,) * a.n, a.generators[0], a.generators[-1], (u + 1,) + (u,) * (a.n - 1)]
    inside.append(tuple((x + y) / 2 for x, y in zip(a.generators[0], a.generators[1])))
    for p in inside:
        p = tuple(Fraction(x) for x in p)
        ok, cert = newton_contains(a, p)
        assert ok, p
        _assert_certificate(a, p, cert)
        assert (ok, cert.coefficients) == _reference_membership(a, p)
    assert newton_contains(a, (u * Fraction(99, 100),) * a.n) == (False, None)


def test_newton_contains_takes_every_pivot_of_the_packing_lp_as_given(monkeypatch):
    # newton_contains solves the packing LP at rhs D*p on the primitive
    # columns at costs -L/gcd(g), a positive rescaling of the LP on the
    # generators as given: the same pivots, decision and convex weights,
    # each in one run of the simplex from the slack basis.
    pivots, runs = [], []
    pivot, iterate = lp._pivot, lp._iterate

    def recording(tab, basis, obj, d, r, s):
        pivots.append((r, s))
        return pivot(tab, basis, obj, d, r, s)

    def counting(*args):
        runs.append(args[1][:])
        return iterate(*args)

    monkeypatch.setattr(lp, "_pivot", recording)
    monkeypatch.setattr(lp, "_iterate", counting)
    classes = list(enumerate_data(EnumerationBudget(n_max=6, max_ratio=3)))
    assert len(classes) == 844
    outcomes = set()
    for d in classes:
        a = monomial_ideal(d)
        u = 1 / lct_datum(d)
        diagonal = (u,) * a.n
        fractional = tuple(u * Fraction(2 * j + 1, a.n) for j in range(a.n))
        for p in (diagonal, a.generators[-1], fractional):
            pivots.clear()
            runs.clear()
            got = newton_contains(a, p)
            scaled = list(pivots)
            pivots.clear()
            want = _reference_membership(a, p)
            # One run per solve, each from the n slacks.
            assert runs == [list(range(a.n))] * 2, d
            assert scaled == pivots, (d, p)
            assert (got[0], got[1] and got[1].coefficients) == (want[0], want[1]), (d, p)
            if got[0]:
                _assert_certificate(a, p, got[1])
            outcomes.add((p is fractional, got[0]))
    assert outcomes == {(False, True), (True, True), (True, False)}


# ---------------------------------------------------------------------------
# Threshold via structural recursion


def test_lct_datum_fixture_values():
    assert lct_datum(star(3, 2)) == Fraction(3, 2)
    assert lct_datum(star(3, 3)) == 1
    assert lct_datum(star(3, 4)) == 1
    assert lct_datum(star(3, 5)) == 1
    assert lct_datum(two_stars(2, 2)) == 2
    assert lct_datum(chain(3, 3, 3)) == 1
    assert lct_datum(chain(2, 2)) == 1


def test_lct_of_loose_points_is_the_dimension():
    from aqci import make_datum

    for n in (1, 2, 5):
        d = make_datum(n, [((i,), 1) for i in range(1, n + 1)])
        assert lct_datum(d) == n
        assert lct_lp(monomial_ideal(d)) == n


def test_lct_is_additive_over_components():
    assert lct_datum(two_stars(2, 3)) == lct_datum(star(2, 2)) + lct_datum(star(2, 3))


def test_lct_recursion_agrees_with_lp_route():
    for d in enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)):
        assert lct_datum(d) == lct_lp(monomial_ideal(d))


def test_lct_bounds():
    for d in enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)):
        t = lct_datum(d)
        assert len(maximal_elements(d)) <= t <= d.n


def test_reduction_scales_the_newton_polyhedron():
    from aqci import children, is_connected, reduce

    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        if not is_connected(d) or d.n == 1:
            continue
        top = maximal_elements(d)[0]
        r = d.weight_of(children(d, top)[0])
        gens = []
        for m in d.members:
            if len(m.elements) == d.n:
                continue
            v = [0] * d.n
            for e in m.elements:
                v[e - 1] = m.weight
            gens.append(tuple(v))
        stripped = MonomialIdeal(d.n, tuple(gens))
        reduced = monomial_ideal(reduce(d, top))
        assert lct_lp(stripped) == lct_lp(reduced) / r


# ---------------------------------------------------------------------------
# Multiplier membership (the second, independent threshold route)


def test_membership_flips_exactly_at_the_threshold():
    a = monomial_ideal(star(3, 2))
    t = lct_lp(a)
    origin = (0, 0, 0)
    assert multiplier_membership(a, t * Fraction(9, 10), origin)
    assert not multiplier_membership(a, t, origin)
    assert not multiplier_membership(a, t * Fraction(11, 10), origin)


def test_membership_flip_point_across_enumeration():
    for a in small_ideals():
        t = lct_lp(a)
        origin = [0] * a.n
        for k in (2, 5):
            assert multiplier_membership(a, t * (1 - Fraction(1, k)), origin)
            assert not multiplier_membership(a, t * (1 + Fraction(1, k)), origin)
        assert not multiplier_membership(a, t, origin)


def test_membership_is_monotone_in_the_monomial():
    a = monomial_ideal(star(2, 3))
    t = Fraction(3, 2)
    assert not multiplier_membership(a, t, (0, 0))
    assert multiplier_membership(a, t, (1, 1))
    assert multiplier_membership(a, t, (2, 1))


def test_membership_rejects_nonpositive_scaling():
    a = monomial_ideal(star(2, 2))
    with pytest.raises(ValueError):
        multiplier_membership(a, 0, (0, 0))


# ---------------------------------------------------------------------------
# Integral closure as a power of the maximal ideal


def test_closure_power_known_cases():
    assert vertex_closure_is_power(monomial_ideal(star(3, 2)), 2)
    assert not vertex_closure_is_power(monomial_ideal(star(3, 2)), 3)
    assert vertex_closure_is_power(monomial_ideal(star(3, 3)), 3)
    assert not vertex_closure_is_power(monomial_ideal(star(3, 4)), 4)
    assert vertex_closure_is_power(monomial_ideal(two_stars(2, 2)), 2)


def test_closure_power_rejects_bad_power():
    with pytest.raises(ValueError):
        vertex_closure_is_power(monomial_ideal(star(2, 2)), 0)


def test_closure_power_matches_the_degree_sweep():
    for d in enumerate_data(EnumerationBudget(n_max=5, max_ratio=3)):
        a = monomial_ideal(d)
        for q in range(1, 5):
            expected = reference_closure_is_power(a, q)
            assert vertex_closure_is_power(a, q) == expected, (d, q)
            assert expected == (find_closure_power(d) == q), (d, q)


@st.composite
def _ideals_with_pure_powers(draw):
    """(ideal, q): pure powers near q on every axis plus a few mixed generators."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(1, 4))
    powers = draw(st.lists(st.integers(max(1, q - 1), q + 1), min_size=n, max_size=n))
    gens = [tuple(c * (j == i) for j in range(n)) for i, c in enumerate(powers)]
    vector = st.tuples(*[st.integers(0, 4)] * n).filter(any)
    gens += draw(st.lists(vector, max_size=4))
    return MonomialIdeal(n, tuple(gens)), q


def test_closure_power_matches_the_degree_sweep_on_random_ideals():
    outcomes = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(case=_ideals_with_pure_powers())
    def agrees(case):
        a, q = case
        got = vertex_closure_is_power(a, q)
        assert got == reference_closure_is_power(a, q)
        outcomes.add(got)

    agrees()
    assert outcomes == {True, False}


def test_find_closure_power_fixture_values():
    assert find_closure_power(star(3, 2)) == 2
    assert find_closure_power(star(3, 3)) == 3
    assert find_closure_power(star(3, 4)) is None
    assert find_closure_power(star(3, 5)) is None
    assert find_closure_power(two_stars(2, 2)) == 2
    assert find_closure_power(chain(2, 2)) is None
    # C(23, 11) = 1352078 degree-12 exponent vectors, and 13 member degrees.
    assert find_closure_power(star(12, 12)) == 12


def test_find_closure_power_runs_no_lp(monkeypatch):
    # Expected values from one vertex LP per axis, at the weight of {1}:
    # only a common singleton weight can be the power.
    expected = []
    for d in enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)):
        q = next(m.weight for m in d.members if m.elements == (1,))
        expected.append((d, q if vertex_closure_is_power(monomial_ideal(d), q) else None))
    assert {q for _, q in expected} > {None}

    def no_lp(*args, **kwargs):
        raise AssertionError("find_closure_power ran an LP")

    monkeypatch.setattr("aqci.lp.solve_min", no_lp)
    assert find_closure_power(star(200, 2)) == 2
    assert find_closure_power(star(200, 200)) == 200
    assert find_closure_power(star(200, 201)) is None
    for d, q in expected:
        assert find_closure_power(d) == q, d


def test_find_closure_power_needs_equal_singleton_weights():
    assert find_closure_power(two_stars(2, 3)) is None


def test_closure_power_forces_threshold_relation():
    # Whenever a power is found, q times the threshold equals the dimension.
    for d in enumerate_data(EnumerationBudget(n_max=3, max_ratio=3)):
        q = find_closure_power(d)
        if q is not None:
            assert q * lct_datum(d) == d.n
