"""Exact simplex solver tests.

Every LP the solver takes is the packing LP min c.x over [I | C] x = rhs,
x >= 0: integer columns C, integer costs on them and an integer rhs >= 0,
solved from the slack basis I.  Optimal values are cross-checked against
basic-solution enumeration, and whole solutions and every pivot against
the two-phase `Fraction`-tableau simplex kept in the test helpers as the
reference, run on the same LP written out as [I | C] x = rhs.
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
from aqci.lp import OPTIMAL, UNBOUNDED, solve_min

import helpers
from helpers import brute_lp_min, compositions, reference_solve_min


def _dense(columns, costs, rhs):
    """(c, A, b) of min c.x, A x = b with A = [I | C]: the LP the references take."""
    n = len(rhs)
    A = [[int(i == j) for j in range(n)] + [g[i] for g in columns] for i in range(n)]
    return [0] * n + list(costs), A, list(rhs)


def _exact(sol):
    """(status, value, C's coordinates as `Fraction`s) of a `solve_min` solution."""
    return sol.status, sol.value, sol.x and tuple(Fraction(v, sol.d) for v in sol.x)


def _reference(columns, costs, rhs):
    """`_exact` of the reference solver's solution of the same LP."""
    ref = reference_solve_min(*_dense(columns, costs, rhs))
    return ref.status, ref.value, ref.x and ref.x[len(rhs) :]


def test_single_variable_equation():
    # min -x subject to s + x = 5.
    sol = solve_min([(1,)], [-1], [5])
    assert (sol.status, sol.value, sol.x, sol.d) == (OPTIMAL, -5, (5,), 1)
    assert type(sol.value) is Fraction and type(sol.x[0]) is int


def test_two_variable_optimum_picks_cheaper_vertex():
    # min -x - 3y subject to s + x + 2y = 4: vertices (4, 0) and (0, 2).
    # Bland's rule brings in x first, then y at the pivot 2.
    sol = solve_min([(1,), (2,)], [-1, -3], [4])
    assert (sol.status, sol.value, sol.x, sol.d) == (OPTIMAL, -6, (0, 4), 2)
    assert _exact(sol) == (OPTIMAL, -6, (0, 2))


@pytest.mark.parametrize(
    "columns, rhs, match",
    [
        ([(1,), (1,)], [-1], "row 0 has a negative right-hand side"),
        # Flipped, the row would start from column 0 of C.
        ([(-1,), (2,)], [-3], "row 0 has a negative right-hand side"),
        ([(1, 0), (0, 1)], [1, -1], "row 1 has a negative right-hand side"),
    ],
    ids=["negative-rhs", "negative-rhs-flippable", "negative-second-row"],
)
def test_a_row_without_a_start_is_refused(columns, rhs, match):
    with pytest.raises(ValueError, match=match):
        solve_min(columns, [1, 1], rhs)


def test_unbounded_direction_detected():
    # min -x subject to s + x - y = 0: push x = y to infinity.
    sol = solve_min([(1,), (-1,)], [-1, 0], [0])
    assert (sol.status, sol.value, sol.x) == (UNBOUNDED, None, None)


def test_degenerate_zero_rhs():
    # s + x + y = 0 forces x = y = s = 0, and then t = 0: only the origin
    # is feasible, and every ratio test ties at 0.
    sol = solve_min([(1, 1), (1, -1)], [-3, -5], [0, 0])
    assert _exact(sol) == (OPTIMAL, 0, (0, 0))


def test_cycling_prone_instance_terminates_at_optimum():
    # A classic degenerate instance on which naive pivoting cycles forever
    # (Beale's): its first two rows times 100 and 50 and its costs times
    # 100, to clear their denominators, with its slacks first.
    columns = [(25, 25, 0), (-6000, -4500, 0), (-4, -1, 1), (900, 150, 0)]
    costs = [-75, 15000, -2, 600]
    sol = solve_min(columns, costs, [0, 0, 1])
    assert sol.status == OPTIMAL
    assert sol.value == -5
    assert sol.value == brute_lp_min(*_dense(columns, costs, [0, 0, 1]))


def test_solution_vector_satisfies_constraints():
    columns, costs, rhs = [(1, 1), (2, 1), (1, 0), (0, 1)], [-1, -3, 2, -1], [4, 1]
    sol = solve_min(columns, costs, rhs)
    assert sol.status == OPTIMAL
    _, value, x = _exact(sol)
    for i, b in enumerate(rhs):
        assert sum(g[i] * v for g, v in zip(columns, x)) <= b
    assert all(v >= 0 for v in x)
    assert sum(c * v for c, v in zip(costs, x)) == value == -3


def test_random_instances_match_basis_enumeration():
    # The slacks give full row rank and a feasible point.
    rng = random.Random(0)
    statuses = set()
    for _ in range(60):
        m = rng.randint(1, 3)
        k = rng.randint(0, 3)
        columns = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(k)]
        costs = [rng.randint(-4, 4) for _ in range(k)]
        rhs = [rng.randint(0, 5) for _ in range(m)]
        sol = solve_min(columns, costs, rhs)
        expected = brute_lp_min(*_dense(columns, costs, rhs))
        assert expected is not None
        statuses.add(sol.status)
        if sol.status == OPTIMAL:
            _, value, x = _exact(sol)
            assert expected == value
            for i, b in enumerate(rhs):
                assert sum(g[i] * v for g, v in zip(columns, x)) <= b
            assert all(v >= 0 for v in x)
        else:
            assert sol.status == UNBOUNDED
    assert statuses == {OPTIMAL, UNBOUNDED}


# ---------------------------------------------------------------------------
# Equality with the reference `Fraction` simplex


_ENTRY = st.integers(-3, 3)


@st.composite
def _small_lps(draw, unit_columns=False):
    """(columns, costs, rhs) with rhs >= 0.

    With `unit_columns` C also holds the m unit columns, in a block at a
    drawn position, so every row has unit columns after its slack.  Small
    entries make zero right-hand sides (degenerate ties) and unbounded
    instances common.
    """
    m = draw(st.integers(0, 4))
    k = draw(st.integers(1, 5))
    columns = [tuple(draw(_ENTRY) for _ in range(m)) for _ in range(k)]
    if unit_columns:
        at = draw(st.integers(0, k))
        columns[at:at] = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    costs = [draw(_ENTRY) for _ in columns]
    rhs = [abs(draw(_ENTRY)) for _ in range(m)]
    return columns, costs, rhs


def _solve_recording_pivots(module, pivot_name, solve, *args):
    """(solution, [(row, column) for each pivot])."""
    pivots = []
    pivot = getattr(module, pivot_name)

    def spy(tab, basis, obj, *args):
        pivots.append((args[-2], args[-1]))
        return pivot(tab, basis, obj, *args)

    with mock.patch.object(module, pivot_name, spy):
        return solve(*args), pivots


def _starts(columns, costs, rhs):
    """(solution, [(columns, basis) as each `lp._iterate` run begins], pivots).

    Checks the solution and every pivot against the reference on the way.
    """
    runs = []
    iterate = lp._iterate

    def spy(tab, basis, obj):
        runs.append((len(obj) - 1, list(basis)))
        return iterate(tab, basis, obj)

    with mock.patch.object(lp, "_iterate", spy):
        sol, pivots = _solve_recording_pivots(lp, "_pivot", solve_min, columns, costs, rhs)
    ref, ref_pivots = _solve_recording_pivots(
        helpers, "_reference_pivot", _reference, columns, costs, rhs
    )
    assert (_exact(sol), pivots) == (ref, ref_pivots)
    return sol, runs, pivots


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps())
def test_solutions_and_pivots_equal_the_reference_solver(instance):
    columns, _, rhs = instance
    _, runs, _ = _starts(*instance)
    assert runs == [(len(rhs) + len(columns), list(range(len(rhs))))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps(unit_columns=True))
def test_unit_columns_start_as_the_reference_solver_does(instance):
    # The reference starts each row from its first unit column: the slack,
    # as `solve_min` does, though C has unit columns too.
    columns, _, rhs = instance
    _, runs, _ = _starts(*instance)
    assert runs == [(len(rhs) + len(columns), list(range(len(rhs))))]


def test_rows_that_all_have_unit_columns_skip_phase_one():
    # Columns 1 and 2 of C are unit columns of rows 0 and 1, but the slacks
    # come first: the simplex runs once, from them, as the reference's
    # phase 2 does after a phase 1 without artificials.
    columns, costs, rhs = [(2, 1), (1, 0), (0, 1), (1, 3)], [-3, 0, 0, -1], [4, 3]
    sol, runs, pivots = _starts(columns, costs, rhs)
    assert runs == [(6, [0, 1])]
    assert pivots == [(0, 2)]
    assert sol.value == -6 == brute_lp_min(*_dense(columns, costs, rhs))


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
    # The starting basis is the slacks' identity, so d starts at 1; the
    # second pivot runs at d = 2, the first pivot's entry.
    columns, costs, rhs = [(2, 1), (1, 3)], [-1, -1], [4, 3]
    sol, seen = _pivot_denominators(solve_min, columns, costs, rhs)
    want = (OPTIMAL, Fraction(-11, 5), (Fraction(9, 5), Fraction(2, 5)))
    assert _exact(sol) == _reference(columns, costs, rhs) == want
    assert (seen, sol.d) == ([1, 2], 5)
    a = monomial_ideal(helpers.chain(3, 3, 3))
    value, seen = _pivot_denominators(lct_lp, a)
    assert value == 1 and seen[0] == 1
    (inside, _), seen = _pivot_denominators(newton_contains, a, (Fraction(3, 2),) * a.n)
    assert inside and seen[0] == 1


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


def _lct_lp_results(data):
    out = []
    for d in data:
        a = monomial_ideal(d)
        out.append(lct_lp(a))
        for p in [*compositions(2, d.n), (Fraction(3, 2),) * d.n]:
            out.append(newton_contains(a, p))
    return out


def _reference_packing_solution(columns, costs, rhs):
    """`solve_min`'s solution by the reference, C's point as `Fraction`s over d = 1."""
    status, value, x = _reference(columns, costs, rhs)
    return lp.LpSolution(status, value, x)


def test_lct_lp_callers_match_the_reference_solver(monkeypatch):
    # The reference turns every entry into a `Fraction`, as the callers did
    # before they passed plain integer columns.
    data = list(enumerate_data(EnumerationBudget(n_max=4, max_ratio=3)))
    got = _lct_lp_results(data)
    monkeypatch.setattr(lp, "solve_min", _reference_packing_solution)
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

    assert solve_min([(2,), (3,)], [-1, -2], [6]).value == -4
    monkeypatch.setattr(lp, "_pivot", corrupted)
    with pytest.raises(ArithmeticError, match="certificate"):
        solve_min([(2,), (3,)], [-1, -2], [6])
    assert len(pivots) == 2
