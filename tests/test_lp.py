"""Exact simplex solver tests.

Optimal values are cross-checked against basic-solution enumeration, and
whole solutions, field for field, against the `Fraction`-tableau simplex
kept in the test helpers as the reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqci import (
    EnumerationBudget,
    enumerate_data,
    lct_lp,
    lp,
    monomial_ideal,
    newton_contains,
)
from aqci.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_min

import helpers
from helpers import (
    brute_lp_min,
    compositions,
    matrix_rank,
    multiplier_membership,
    reference_solve_min,
)


def test_single_variable_equation():
    sol = solve_min([Fraction(1)], [[Fraction(1)]], [Fraction(5)])
    assert sol.status == OPTIMAL
    assert sol.value == 5
    assert sol.x == (Fraction(5),)


def test_two_variable_optimum_picks_cheaper_vertex():
    # min x + y subject to x + 2y = 4: vertices (4,0) and (0,2).
    sol = solve_min(
        [Fraction(1), Fraction(1)],
        [[Fraction(1), Fraction(2)]],
        [Fraction(4)],
    )
    assert sol.status == OPTIMAL
    assert sol.value == 2
    assert sol.x == (Fraction(0), Fraction(2))


def test_negative_rhs_is_normalized():
    # x + y = -1 with x, y >= 0 has no solution.
    sol = solve_min(
        [Fraction(0), Fraction(0)],
        [[Fraction(1), Fraction(1)]],
        [Fraction(-1)],
    )
    assert sol.status == INFEASIBLE


def test_unbounded_direction_detected():
    # min -x subject to x - y = 0: push x = y to infinity.
    sol = solve_min(
        [Fraction(-1), Fraction(0)],
        [[Fraction(1), Fraction(-1)]],
        [Fraction(0)],
    )
    assert sol.status == UNBOUNDED


def test_redundant_duplicate_rows_are_dropped():
    sol = solve_min(
        [Fraction(1), Fraction(0)],
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
        [Fraction(1), Fraction(1)],
    )
    assert sol.status == OPTIMAL
    assert sol.value == 0
    assert sol.x == (Fraction(0), Fraction(1))


def test_degenerate_zero_rhs():
    # Only the origin is feasible.
    sol = solve_min(
        [Fraction(-3), Fraction(-5)],
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
        [Fraction(0), Fraction(0)],
    )
    assert sol.status == OPTIMAL
    assert sol.value == 0


def test_fractional_data_stays_exact():
    sol = solve_min(
        [Fraction(1, 3), Fraction(1, 7)],
        [[Fraction(2, 5), Fraction(3, 5)]],
        [Fraction(1)],
    )
    assert sol.status == OPTIMAL
    # Vertex (5/2, 0) costs 5/6; vertex (0, 5/3) costs 5/21.
    assert sol.value == Fraction(5, 21)


def test_cycling_prone_instance_terminates_at_optimum():
    # A classic degenerate instance on which naive pivoting cycles forever.
    c = [Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6),
         Fraction(0), Fraction(0), Fraction(0)]
    A = [
        [Fraction(1, 4), Fraction(-60), Fraction(-1, 25), Fraction(9),
         Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(1, 2), Fraction(-90), Fraction(-1, 50), Fraction(3),
         Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0),
         Fraction(0), Fraction(0), Fraction(1)],
    ]
    b = [Fraction(0), Fraction(0), Fraction(1)]
    sol = solve_min(c, A, b)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(-1, 20)
    assert sol.value == brute_lp_min(c, A, b)


def test_solution_vector_satisfies_constraints():
    c = [Fraction(2), Fraction(1), Fraction(3)]
    A = [[Fraction(1), Fraction(1), Fraction(2)], [Fraction(0), Fraction(1), Fraction(1)]]
    b = [Fraction(4), Fraction(1)]
    sol = solve_min(c, A, b)
    assert sol.status == OPTIMAL
    for row, rhs in zip(A, b):
        assert sum(r * x for r, x in zip(row, sol.x)) == rhs
    assert all(x >= 0 for x in sol.x)
    assert sum(ci * xi for ci, xi in zip(c, sol.x)) == sol.value


def test_random_instances_match_basis_enumeration():
    rng = random.Random(0)
    checked = 0
    while checked < 60:
        m = rng.randint(1, 3)
        n = rng.randint(m, m + 3)
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        if matrix_rank(A) < m:
            continue
        b = [Fraction(rng.randint(0, 5)) for _ in range(m)]
        c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        sol = solve_min(c, A, b)
        expected = brute_lp_min(c, A, b)
        if sol.status == OPTIMAL:
            assert expected == sol.value
            for row, rhs in zip(A, b):
                assert sum(r * x for r, x in zip(row, sol.x)) == rhs
            assert all(x >= 0 for x in sol.x)
        elif sol.status == INFEASIBLE:
            assert expected is None
        checked += 1


# ---------------------------------------------------------------------------
# Equality with the reference `Fraction` simplex


_INTEGER = st.integers(-3, 3)
_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _small_lps(draw):
    """min c.x, A x = b: integer or rational rows, sometimes a redundant row.

    Small entries make negative right-hand sides, zero right-hand sides
    (degenerate ties), infeasible and unbounded instances common.
    """
    entry = draw(st.sampled_from([_INTEGER, _RATIONAL]))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(entry) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        k = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        A[-1] = [k * v for v in A[0]]
        b[-1] = k * b[0]
    c = [draw(st.one_of(_INTEGER, _RATIONAL)) for _ in range(n)]
    return c, A, b


def _solve_recording_pivots(module, pivot_name, solve, c, A, b):
    """(solution, [(row, column, phase-1 drive-out?) for each pivot])."""
    pivots = []
    pivot = getattr(module, pivot_name)

    def spy(tab, basis, obj, *args):
        pivots.append((args[-2], args[-1], obj is None))
        return pivot(tab, basis, obj, *args)

    with mock.patch.object(module, pivot_name, spy):
        return solve(c, A, b), pivots


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps())
def test_solutions_and_pivots_equal_the_reference_solver(instance):
    got = _solve_recording_pivots(lp, "_pivot", solve_min, *instance)
    want = _solve_recording_pivots(helpers, "_reference_pivot", reference_solve_min, *instance)
    assert got == want


@st.composite
def _small_lps_with_a_unit_block(draw):
    """`_small_lps` with one column per row inserted at a random position.

    Row i's new column holds 1, -1 or 1/2 in row i and 0 elsewhere, so a
    row starts from it when that entry, after the flip and the scaling by
    the row's denominator lcm, is 1; the other rows get artificials.
    """
    c, A, b = draw(_small_lps())
    m = len(A)
    at = draw(st.integers(0, len(c)))
    entries = [draw(st.sampled_from([1, -1, Fraction(1, 2)])) for _ in range(m)]
    A = [
        row[:at] + [e if k == i else 0 for k in range(m)] + row[at:]
        for i, (row, e) in enumerate(zip(A, entries))
    ]
    return c[:at] + [draw(_INTEGER) for _ in range(m)] + c[at:], A, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps_with_a_unit_block())
def test_unit_columns_start_as_the_reference_solver_does(instance):
    got = _solve_recording_pivots(lp, "_pivot", solve_min, *instance)
    want = _solve_recording_pivots(helpers, "_reference_pivot", reference_solve_min, *instance)
    assert got == want


def _starts(c, A, b):
    """(solution, [(columns, basis) as each `lp._iterate` run begins], pivots)."""
    runs = []
    iterate = lp._iterate

    def spy(tab, basis, obj, d, ncols):
        runs.append((ncols, list(basis)))
        return iterate(tab, basis, obj, d, ncols)

    with mock.patch.object(lp, "_iterate", spy):
        sol, pivots = _solve_recording_pivots(lp, "_pivot", solve_min, c, A, b)
    want = _solve_recording_pivots(helpers, "_reference_pivot", reference_solve_min, c, A, b)
    assert (sol, pivots) == want
    return sol, runs, pivots


def test_rows_that_all_have_unit_columns_skip_phase_one():
    # Column 1 is the unit column of row 0 and column 2 that of row 1.
    sol, runs, pivots = _starts([-3, 0, 0, -1], [[2, 1, 0, 1], [1, 0, 1, 3]], [4, 3])
    assert runs == [(4, [1, 2])]
    assert pivots and all(not drive_out for _, _, drive_out in pivots)
    assert sol.value == brute_lp_min([-3, 0, 0, -1], [[2, 1, 0, 1], [1, 0, 1, 3]], [4, 3])


@pytest.mark.parametrize(
    "row, rhs, start",
    [
        ([Fraction(1, 2), 1], 1, 0),  # scaled by 2 the row is [1, 2 | 2]
        ([-1, 2], -3, 0),  # flipped the row is [1, -2 | 3]
        ([2, 3], 6, None),  # no entry is 1: an artificial, column 2
    ],
)
def test_a_row_starts_from_a_column_that_scales_to_one(row, rhs, start):
    sol, runs, _ = _starts([1, 1], [row], [rhs])
    assert sol.status == OPTIMAL
    if start is None:
        assert runs[0] == (3, [2]) and len(runs) == 2
    else:
        assert runs == [(2, [start])]


def _pivot_denominators(solve, *args):
    """(result, [the denominator d each `lp._pivot` call receives])."""
    seen = []
    pivot = lp._pivot

    def spy(tab, basis, obj, d, r, s):
        seen.append(d)
        return pivot(tab, basis, obj, d, r, s)

    with mock.patch.object(lp, "_pivot", spy):
        return solve(*args), seen


def test_the_first_pivot_sees_denominator_one():
    # Row i is scaled by its own lcm and starts from a unit column, its own
    # or an artificial, so the starting basis is the identity, on integer and
    # on rational rows (the convexity row of `newton_contains` on
    # `chain(3, 3, 3)` has entries 1/gcd(g) down to 1/9).
    sol, seen = _pivot_denominators(solve_min, [2, 1, 3], [[1, 1, 2], [0, 1, 1]], [4, 1])
    assert sol == reference_solve_min([2, 1, 3], [[1, 1, 2], [0, 1, 1]], [4, 1])
    assert seen[0] == 1
    a = monomial_ideal(helpers.chain(3, 3, 3))
    value, seen = _pivot_denominators(lct_lp, a)
    assert value == 1 and seen[0] == 1
    (inside, _), seen = _pivot_denominators(newton_contains, a, (1,) * a.n)
    assert inside and seen[0] == 1


def test_rows_with_denominators_two_and_three_keep_every_pivot():
    # s = (2, 3), so the phase-1 artificials cost 3 and 2; the run pivots
    # twice in each phase, as the `Fraction` reference does.
    c = [1, -1, 1, -2]
    A = [[Fraction(1, 2), 1, 0, Fraction(3, 2)], [1, Fraction(1, 3), 1, Fraction(2, 3)]]
    b = [1, Fraction(2, 3)]
    got = _solve_recording_pivots(lp, "_pivot", solve_min, c, A, b)
    want = _solve_recording_pivots(helpers, "_reference_pivot", reference_solve_min, c, A, b)
    assert got == want
    assert got[1] == [(1, 0, False), (0, 1, False), (1, 2, False), (0, 3, False)]
    assert got[0].value == Fraction(-10, 9)


def _dense_bareiss(tab, obj, d, r, s):
    """One dense Bareiss pivot on (r, s): every entry of every other row.

    Each division is checked exact: a tableau reached from an integer matrix
    by such pivots holds minors of it (Sylvester's identity).
    """
    row = tab[r]
    p = row[s]
    if p < 0:
        row, p = [-v for v in row], -p

    def step(v):
        out = []
        for a, b in zip(v, row):
            q, rem = divmod(a * p - v[s] * b, d)
            assert rem == 0
            out.append(q)
        return out

    tab = [row if k == r else step(v) for k, v in enumerate(tab)]
    return tab, None if obj is None else step(obj), p


@st.composite
def _pivot_runs(draw):
    """An integer tableau, an objective row or None, and pivot positions."""
    entry = st.integers(-2, 2)
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    tab = [[draw(entry) for _ in range(n)] for _ in range(m)]
    obj = draw(st.one_of(st.none(), st.lists(entry, min_size=n, max_size=n)))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    return tab, obj, draw(st.lists(cells, max_size=8))


def test_sparse_pivot_equals_a_dense_bareiss_step():
    # With p == d only the pivot row's nonzero columns change; both cases
    # must give the dense step's tableau, objective and denominator.
    cases = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_pivot_runs())
    def agrees(run):
        tab, obj, cells = run
        d = 1
        for r, s in cells:
            if tab[r][s] == 0:
                continue
            cases.add(abs(tab[r][s]) == d)
            want = _dense_bareiss(tab, obj, d, r, s)
            got_tab = [list(v) for v in tab]
            got_obj = None if obj is None else list(obj)
            basis = list(range(len(tab)))
            got_d = lp._pivot(got_tab, basis, got_obj, d, r, s)
            assert (got_tab, got_obj, got_d) == want
            assert basis[r] == s
            tab, obj, d = want

    agrees()
    assert cases == {True, False}


def test_redundant_rational_row_is_dropped_exactly(monkeypatch):
    # The second row is twice the first: phase 1 leaves its artificial basic
    # on a row that is zero on every real column, and the row is dropped
    # while the common denominator is 60.
    c = [1, 0, 2]
    A = [[Fraction(1, 2), Fraction(1, 3), 1], [1, Fraction(2, 3), 2], [0, 1, Fraction(1, 5)]]
    b = [1, 2, Fraction(3, 4)]
    rows_seen = []
    iterate = lp._iterate

    def spy(tab, *args):
        rows_seen.append(len(tab))
        return iterate(tab, *args)

    monkeypatch.setattr(lp, "_iterate", spy)
    sol = solve_min(c, A, b)
    assert rows_seen == [3, 2]
    assert sol == reference_solve_min(c, A, b)
    assert sol == lp.LpSolution(OPTIMAL, Fraction(3, 2), (Fraction(3, 2), Fraction(3, 4), Fraction(0)))


def test_artificial_driven_out_on_a_negative_pivot(monkeypatch):
    c, A, b = [0, 1, 0], [[0, 2, 2], [-2, 0, -2]], [1, 0]
    negative_drive_outs = []
    pivot = lp._pivot

    def spy(tab, basis, obj, d, r, s):
        if obj is None and tab[r][s] < 0:
            negative_drive_outs.append((tab[r][s], d))
        return pivot(tab, basis, obj, d, r, s)

    monkeypatch.setattr(lp, "_pivot", spy)
    sol = solve_min(c, A, b)
    assert negative_drive_outs == [(-4, 2)]
    assert sol == reference_solve_min(c, A, b)
    assert sol == lp.LpSolution(OPTIMAL, Fraction(1, 2), (Fraction(0), Fraction(1, 2), Fraction(0)))


def test_int_fraction_and_mixed_input_agree():
    c = [2, 1, 3]
    A = [[1, 1, 2], [0, 1, 1]]
    b = [4, 1]
    frac = ([Fraction(v) for v in c], [[Fraction(v) for v in row] for row in A], [Fraction(v) for v in b])
    mixed = (frac[0][:1] + c[1:], [A[0], frac[1][1]], [b[0], frac[2][1]])
    solutions = {solve_min(c, A, b), solve_min(*frac), solve_min(*mixed)}
    assert solutions == {reference_solve_min(c, A, b)}
    (sol,) = solutions
    assert sol.status == OPTIMAL and all(type(v) is Fraction for v in (sol.value, *sol.x))


def _lct_lp_results(data):
    out = []
    for d in data:
        a = monomial_ideal(d)
        out.append(lct_lp(a))
        for p in [*compositions(2, d.n), (Fraction(3, 2),) * d.n]:
            out.append(newton_contains(a, p))
        for t in (Fraction(1, 2), 1, Fraction(3, 2)):
            for m in ((0,) * d.n, (1,) + (0,) * (d.n - 1)):
                out.append(multiplier_membership(a, t, m))
    return out


def test_lct_lp_callers_match_the_reference_solver(monkeypatch):
    # The reference turns every entry into a `Fraction`, as the callers did
    # before they passed plain integer rows.
    data = list(enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)))
    got = _lct_lp_results(data)
    monkeypatch.setattr(lp, "solve_min", reference_solve_min)
    assert _lct_lp_results(data) == got


# ---------------------------------------------------------------------------
# The certificate of an optimum


def _bump_rhs(tab, obj):
    tab[0][-1] += 1


def _bump_value(tab, obj):
    obj[-1] -= 1


@pytest.mark.parametrize("call, corrupt", [(0, _bump_rhs), (1, _bump_value)])
def test_corrupted_pivot_fails_the_certificate(monkeypatch, call, corrupt):
    # min x + y subject to 2x + 3y = 6 has no unit column to start from, so
    # it takes one pivot in each phase.
    pivots = []
    pivot = lp._pivot

    def corrupted(tab, basis, obj, d, r, s):
        d = pivot(tab, basis, obj, d, r, s)
        if len(pivots) == call:
            corrupt(tab, obj)
        pivots.append((r, s))
        return d

    assert solve_min([1, 1], [[2, 3]], [6]).status == OPTIMAL
    monkeypatch.setattr(lp, "_pivot", corrupted)
    with pytest.raises(ArithmeticError, match="certificate"):
        solve_min([1, 1], [[2, 3]], [6])
    assert len(pivots) == 2
