"""Exact simplex solver tests.

Every LP given to the solver carries its starting basis: a column per row
that is 1 in the row scaled by its denominator lcm and 0 elsewhere, and a
right-hand side >= 0.  Optimal values are cross-checked against
basic-solution enumeration, and whole solutions, field for field and pivot
for pivot, against the two-phase `Fraction`-tableau simplex kept in the
test helpers as the reference.
"""

from __future__ import annotations

import math
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
from aqci.lp import OPTIMAL, UNBOUNDED, solve_min

import helpers
from helpers import brute_lp_min, compositions, reference_solve_min


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


@pytest.mark.parametrize(
    "A, b, match",
    [
        ([[1, 1]], [-1], "row 0 has a negative right-hand side"),
        ([[-1, 2]], [-3], "row 0 has a negative right-hand side"),  # flipped, column 0 would do
        ([[2, 3]], [6], "row 0 has no unit column"),
        ([[1, 0], [1, 1]], [1, 1], "row 0 has no unit column"),  # column 0 is 1 in both rows
    ],
    ids=["negative-rhs", "negative-rhs-flippable", "no-entry-one", "one-shared"],
)
def test_a_row_without_a_start_is_refused(A, b, match):
    with pytest.raises(ValueError, match=match):
        solve_min([1, 1], A, b)


def test_unbounded_direction_detected():
    # min -x subject to x - y = 0: push x = y to infinity.
    sol = solve_min(
        [Fraction(-1), Fraction(0)],
        [[Fraction(1), Fraction(-1)]],
        [Fraction(0)],
    )
    assert sol.status == UNBOUNDED


def test_degenerate_zero_rhs():
    # x + y + s = 0 forces x = y = s = 0, and then t = 0: only the origin
    # is feasible, and every ratio test ties at 0.
    sol = solve_min(
        [Fraction(-3), Fraction(-5), Fraction(0), Fraction(0)],
        [[Fraction(1), Fraction(1), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(-1), Fraction(0), Fraction(1)]],
        [Fraction(0), Fraction(0)],
    )
    assert sol.status == OPTIMAL
    assert sol.value == 0
    assert sol.x == (Fraction(0),) * 4


def test_fractional_data_stays_exact():
    # Scaled by 5 the row is [2, 3, 1 | 5]: the third column starts.
    sol = solve_min(
        [Fraction(1, 3), Fraction(1, 7), Fraction(1)],
        [[Fraction(2, 5), Fraction(3, 5), Fraction(1, 5)]],
        [Fraction(1)],
    )
    assert sol.status == OPTIMAL
    # Vertex (5/2, 0, 0) costs 5/6, (0, 5/3, 0) 5/21 and (0, 0, 5) 5.
    assert sol.value == Fraction(5, 21)


def test_cycling_prone_instance_terminates_at_optimum():
    # A classic degenerate instance on which naive pivoting cycles forever
    # (Beale's), its first two rows times 100 and 50 to clear their
    # denominators: the slacks stay unit columns, and no pivot changes.
    c = [Fraction(-3, 4), Fraction(150), Fraction(-1, 50), Fraction(6), 0, 0, 0]
    A = [
        [25, -6000, -4, 900, 1, 0, 0],
        [25, -4500, -1, 150, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    sol = solve_min(c, A, b)
    assert sol.status == OPTIMAL
    assert sol.value == Fraction(-1, 20)
    assert sol.value == brute_lp_min(c, A, b)


def test_solution_vector_satisfies_constraints():
    c = [Fraction(2), Fraction(1), Fraction(3), Fraction(-1)]
    A = [
        [Fraction(1), Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1), Fraction(1)],
    ]
    b = [Fraction(4), Fraction(1)]
    sol = solve_min(c, A, b)
    assert sol.status == OPTIMAL
    for row, rhs in zip(A, b):
        assert sum(r * x for r, x in zip(row, sol.x)) == rhs
    assert all(x >= 0 for x in sol.x)
    assert sum(ci * xi for ci, xi in zip(c, sol.x)) == sol.value


def test_random_instances_match_basis_enumeration():
    # Each row gets a slack: full row rank, and the slacks are feasible.
    rng = random.Random(0)
    statuses = set()
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(0, 3)
        A = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] + [int(i == k) for k in range(m)]
            for i in range(m)
        ]
        b = [Fraction(rng.randint(0, 5)) for _ in range(m)]
        c = [Fraction(rng.randint(-4, 4)) for _ in range(n + m)]
        sol = solve_min(c, A, b)
        expected = brute_lp_min(c, A, b)
        assert expected is not None
        statuses.add(sol.status)
        if sol.status == OPTIMAL:
            assert expected == sol.value
            for row, rhs in zip(A, b):
                assert sum(r * x for r, x in zip(row, sol.x)) == rhs
            assert all(x >= 0 for x in sol.x)
        else:
            assert sol.status == UNBOUNDED
    assert statuses == {OPTIMAL, UNBOUNDED}


# ---------------------------------------------------------------------------
# Equality with the reference `Fraction` simplex


_INTEGER = st.integers(-3, 3)
_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _unit_entry(row, rhs):
    """1/s with s the lcm of the row's denominators: 1 once the row is scaled."""
    return Fraction(1, math.lcm(*(Fraction(v).denominator for v in (*row, rhs))))


@st.composite
def _small_lps(draw, anywhere=False):
    """min c.x, A x = b with b >= 0: integer or rational rows and a unit block.

    Row i gets one column that is 1/s_i in it and 0 in every other row, s_i
    the lcm of the row's denominators, so that column scales to a unit
    column; the block comes last (the slacks of a <=-form LP), or at a drawn
    position when `anywhere`.  Small entries make zero right-hand sides
    (degenerate ties), other unit columns before the block and unbounded
    instances common.
    """
    entry = draw(st.sampled_from([_INTEGER, _RATIONAL]))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [abs(draw(entry)) for _ in range(m)]
    at = draw(st.integers(0, n)) if anywhere else n
    A = [
        row[:at] + [_unit_entry(row, rhs) if k == i else 0 for k in range(m)] + row[at:]
        for i, (row, rhs) in enumerate(zip(A, b))
    ]
    c = [draw(st.one_of(_INTEGER, _RATIONAL)) for _ in range(n + m)]
    return c, A, b


def _solve_recording_pivots(module, pivot_name, solve, c, A, b):
    """(solution, [(row, column) for each pivot])."""
    pivots = []
    pivot = getattr(module, pivot_name)

    def spy(tab, basis, obj, *args):
        pivots.append((args[-2], args[-1]))
        return pivot(tab, basis, obj, *args)

    with mock.patch.object(module, pivot_name, spy):
        return solve(c, A, b), pivots


def _starts(c, A, b):
    """(solution, [(columns, basis) as each `lp._iterate` run begins], pivots).

    Checks the solution and every pivot against the reference on the way.
    """
    runs = []
    iterate = lp._iterate

    def spy(tab, basis, obj):
        runs.append((len(obj) - 1, list(basis)))
        return iterate(tab, basis, obj)

    with mock.patch.object(lp, "_iterate", spy):
        sol, pivots = _solve_recording_pivots(lp, "_pivot", solve_min, c, A, b)
    want = _solve_recording_pivots(helpers, "_reference_pivot", reference_solve_min, c, A, b)
    assert (sol, pivots) == want
    return sol, runs, pivots


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps())
def test_solutions_and_pivots_equal_the_reference_solver(instance):
    _, runs, _ = _starts(*instance)
    assert len(runs) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps(anywhere=True))
def test_unit_columns_start_as_the_reference_solver_does(instance):
    _, runs, _ = _starts(*instance)
    assert len(runs) == 1


def test_rows_that_all_have_unit_columns_skip_phase_one():
    # Column 1 is the unit column of row 0 and column 2 that of row 1: the
    # simplex runs once, from them, as the reference's phase 2 does.
    sol, runs, pivots = _starts([-3, 0, 0, -1], [[2, 1, 0, 1], [1, 0, 1, 3]], [4, 3])
    assert runs == [(4, [1, 2])]
    assert pivots
    assert sol.value == brute_lp_min([-3, 0, 0, -1], [[2, 1, 0, 1], [1, 0, 1, 3]], [4, 3])


@pytest.mark.parametrize(
    "row, rhs, start",
    [
        ([Fraction(1, 2), 1], 1, 0),  # scaled by 2 the row is [1, 2 | 2]
        ([1, Fraction(1, 3)], Fraction(2, 3), 1),  # scaled by 3 it is [3, 1 | 2]
    ],
)
def test_a_row_starts_from_a_column_that_scales_to_one(row, rhs, start):
    sol, runs, _ = _starts([1, 1], [row], [rhs])
    assert sol.status == OPTIMAL
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
    # Row i is scaled by its own lcm and starts from its unit column, so the
    # starting basis is the identity, on integer and on rational rows (the
    # second row scales to [0, 2, 2, 1 | 1], and its first pivot is 2).
    c, A, b = [2, -1, 3, 0], [[1, 1, 2, 0], [0, 1, 1, Fraction(1, 2)]], [4, Fraction(1, 2)]
    sol, seen = _pivot_denominators(solve_min, c, A, b)
    assert sol == reference_solve_min(c, A, b)
    assert seen == [1]
    a = monomial_ideal(helpers.chain(3, 3, 3))
    value, seen = _pivot_denominators(lct_lp, a)
    assert value == 1 and seen[0] == 1
    (inside, _), seen = _pivot_denominators(newton_contains, a, (Fraction(3, 2),) * a.n)
    assert inside and seen[0] == 1


def test_rows_with_denominators_two_and_three_keep_every_pivot():
    # s = (2, 3): the rows scale to [1, 2, 0, 3, 1, 0 | 2] and
    # [3, 1, 3, 2, 0, 1 | 2], which start from columns 4 and 5.  The first
    # pivot is 2, so the second runs at d = 2, as the `Fraction` reference
    # pivots.
    c = [1, -1, 1, -2, 0, 0]
    A = [
        [Fraction(1, 2), 1, 0, Fraction(3, 2), Fraction(1, 2), 0],
        [1, Fraction(1, 3), 1, Fraction(2, 3), 0, Fraction(1, 3)],
    ]
    b = [1, Fraction(2, 3)]
    sol, runs, pivots = _starts(c, A, b)
    assert runs == [(6, [4, 5])]
    assert pivots == [(0, 1), (0, 3)]
    assert sol.value == Fraction(-4, 3) == brute_lp_min(c, A, b)


def _dense_bareiss(tab, obj, d, r, s):
    """One dense Bareiss pivot on (r, s): every entry of every other row.

    Each division is checked exact: a tableau reached from an integer matrix
    by such pivots holds minors of it (Sylvester's identity).
    """
    row = tab[r]
    p = row[s]

    def step(v):
        out = []
        for a, b in zip(v, row):
            q, rem = divmod(a * p - v[s] * b, d)
            assert rem == 0
            out.append(q)
        return out

    tab = [row if k == r else step(v) for k, v in enumerate(tab)]
    return tab, step(obj), p


@st.composite
def _pivot_runs(draw):
    """An integer tableau, an objective row and pivot positions."""
    entry = st.integers(-2, 2)
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    tab = [[draw(entry) for _ in range(n)] for _ in range(m)]
    obj = draw(st.lists(entry, min_size=n, max_size=n))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    return tab, obj, draw(st.lists(cells, max_size=8))


def test_sparse_pivot_equals_a_dense_bareiss_step():
    # With p == d only the pivot row's nonzero columns change; both cases
    # must give the dense step's tableau, objective and denominator.  The
    # ratio test only pivots on a positive entry.
    cases = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_pivot_runs())
    def agrees(run):
        tab, obj, cells = run
        d = 1
        for r, s in cells:
            if tab[r][s] <= 0:
                continue
            cases.add(tab[r][s] == d)
            want = _dense_bareiss(tab, obj, d, r, s)
            got_tab = [list(v) for v in tab]
            got_obj = list(obj)
            basis = list(range(len(tab)))
            got_d = lp._pivot(got_tab, basis, got_obj, d, r, s)
            assert (got_tab, got_obj, got_d) == want
            assert basis[r] == s
            tab, obj, d = want

    agrees()
    assert cases == {True, False}


def test_int_fraction_and_mixed_input_agree():
    c = [2, 1, 3, -1]
    A = [[1, 1, 2, 0], [0, 1, 1, 1]]
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
    # min -x - 2y subject to s + 2x + 3y = 6 starts from s, brings in x
    # (the first negative reduced cost) and then y: two pivots.
    pivots = []
    pivot = lp._pivot

    def corrupted(tab, basis, obj, d, r, s):
        d = pivot(tab, basis, obj, d, r, s)
        if len(pivots) == call:
            corrupt(tab, obj)
        pivots.append((r, s))
        return d

    assert solve_min([0, -1, -2], [[1, 2, 3]], [6]).value == -4
    monkeypatch.setattr(lp, "_pivot", corrupted)
    with pytest.raises(ArithmeticError, match="certificate"):
        solve_min([0, -1, -2], [[1, 2, 3]], [6])
    assert len(pivots) == 2
