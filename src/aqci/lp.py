"""Exact linear programming over the rationals, on integers.

A two-phase primal simplex with Bland's rule for anti-cycling, on a dense
tableau of Python integers: no revised updates and no floating point, as
exactness is the whole point.

The tableau is fraction-free (Bareiss's integer-preserving elimination, as
in Avis's `lrs`).  Each input row i is scaled by its own denominator lcm
s_i, which gives an integer matrix M; the tableau is T = d * B^-1 M in
Python `int`s, where B is the current basis of M and d = |det B| is one
common denominator.  A pivot on p = T[r][s] replaces every other row k by
(p * T[k] - T[k][s] * T[r]) / d and makes d = |p| (row r only takes the sign
of p).  By Cramer's rule every entry of the new tableau is a minor of M, so
that division is always exact.  Every decision of the simplex compares
signs or cross-multiplied ratios, which the positive d does not change, so
the pivots are the ones a rational tableau would make.

The starting basis is a unit column per row, so it is the identity and d
starts at 1.  Row i (flipped so that its right-hand side is >= 0) starts
from the first real column that holds 1 in M's row i and 0 in every other
row (its slack, in a <=-form LP with b >= 0).  Only the rows without one get a
unit artificial column, and phase 1 runs only when some row has one.  That
artificial stands for s_i times the rational one, so it costs 1/s_i, and
the phase-1 costs are the integers L/s_i with L the lcm of those s_i:
positive scalings of one column, one row and the objective, which keep
every sign and every ratio comparison and so every pivot.  Bland's rule
terminates from any feasible basis.  A pivot keeps d / |det B| fixed, so d
is (product of the s_i) * |det B_rational| throughout, the d that scaling
every row by the product of all the lcms gave, and the tableau holds the
same integers as under that scaling.  What the per-row scaling saves is
interpreter work (no division while d == 1), not smaller numbers.  On
`lct_lp` of `chain(3,...,3)` with n = 20, 40 and 80, whose packing rows
start from their slacks, d stays 1 and every entry off the objective row
is 0 or +-1 through all n pivots; `newton_contains` at (1,..,1) on the same
ideals ends at d and entries of 29-30, 61-62 and 124-125 bits.

When p == d, an entry whose pivot-row entry is 0 keeps its value,
(a * p - f * 0) / d = a, so the update touches only the pivot row's nonzero
(column, entry) pairs, listed once per pivot.  On the LPs of `lct` (0/1
generator columns after each is divided by its gcd) that is nearly every
pivot, and a pivot row is mostly zeros.  Otherwise every entry
is updated.

Before an optimum is returned its point is certified against the scaled
input: M x = b, x >= 0 and c.x = value are checked exactly in integers, and
a failure raises `ArithmeticError`.  `Fraction`s are built only for the
returned value and the nonzero coordinates of the point.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import Record

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpSolution(Record):
    """`status` is OPTIMAL, INFEASIBLE or UNBOUNDED; the optimal `value` (a
    `Fraction`) and point `x` (a tuple of `Fraction`s) are None otherwise."""

    __slots__ = ("status", "value", "x")


def _eliminate(v, row, nz, p, d, s):
    """v with column s cleared against the pivot row (pivot p, old denominator d).

    `nz` lists the pivot row's nonzero (column, entry) pairs.  When p == d an
    entry whose pivot-row entry b is 0 keeps its value, (a*p - f*0)/d = a, so
    only the columns in `nz` change, in place: a - f*b/d, exact because the
    new entry is an integer.  Otherwise every entry changes and a new list is
    made.  While d == 1 nothing is divided.
    """
    f = v[s]
    if p == d:
        if f:
            if d == 1:
                for j, b in nz:
                    v[j] -= f * b
            else:
                for j, b in nz:
                    v[j] -= f * b // d
        return v
    if d == 1:
        return [a * p - f * b for a, b in zip(v, row)] if f else [a * p for a in v]
    if f == 0:
        return [a * p // d for a in v]
    return [(a * p - f * b) // d for a, b in zip(v, row)]


def _pivot(tab, basis, obj, d, r, s):
    """Pivot on (r, s); returns the new denominator."""
    row = tab[r]
    p = row[s]
    if p < 0:
        row = tab[r] = [-v for v in row]
        p = -p
    nz = list(filter(_entry, enumerate(row))) if p == d else None
    for k, v in enumerate(tab):
        # With p == d a row that is 0 in column s keeps every entry.
        if k != r and (v[s] or p != d):
            tab[k] = _eliminate(v, row, nz, p, d, s)
    if obj is not None:
        obj[:] = _eliminate(obj, row, nz, p, d, s)
    basis[r] = s
    return p


def _iterate(tab, basis, obj, d, ncols):
    """Run Bland-rule pivots; returns (OPTIMAL or UNBOUNDED, denominator)."""
    while True:
        for enter in range(ncols):
            if obj[enter] < 0:
                break
        else:
            return OPTIMAL, d
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if best is None:
                    best = i
                    continue
                # row[-1] / a against the best ratio, cross-multiplied.
                lhs = row[-1] * tab[best][enter]
                rhs = tab[best][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            return UNBOUNDED, d
        d = _pivot(tab, basis, obj, d, best, enter)


_denominator = operator.attrgetter("denominator")
_numerator = operator.attrgetter("numerator")
_entry = operator.itemgetter(1)
_ZERO = Fraction(0)


def _integer_rows(rows):
    """(s_i * row_i for each row, [s_i]) with s_i the lcm of row i's denominators."""
    out, scales = [], []
    for row in rows:
        dens = list(map(_denominator, row))
        s = math.lcm(*dens)
        nums = map(_numerator, row)
        out.append(list(nums) if s == 1 else [a * (s // q) for a, q in zip(nums, dens)])
        scales.append(s)
    return out, scales


def solve_min(c, A, b) -> LpSolution:
    """Minimize c.x subject to A x = b, x >= 0, exactly.

    `A` is a list of rows; entries of `c`, `A` and `b` are `int`s or
    `Fraction`s.  Rows with negative right-hand side are flipped and each
    row is scaled by its denominator lcm.  A row starts from the first real
    column that is 1 in it and 0 in every other row; only the rows without
    one get an artificial variable, and a phase-1 run finds a basic
    feasible point (or proves infeasibility), leftover artificials are
    driven out or their rows dropped as redundant.  Phase 2 optimizes the
    real objective.
    """
    m, n = len(A), len(c)
    given, scales = _integer_rows([[*A[i], b[i]] for i in range(m)])
    tab = [[-v for v in row] if row[-1] < 0 else row[:] for row in given]
    # Row i starts from the first real column that is 1 in it and 0 elsewhere.
    basis = [None] * m
    for j, col in zip(range(n), zip(*tab)):
        if col.count(0) == m - 1 and 1 in col and basis[col.index(1)] is None:
            basis[col.index(1)] = j
    short = [i for i in range(m) if basis[i] is None]
    d = 1
    if short:
        k = len(short)
        for a, i in enumerate(short):
            basis[i] = n + a
        tab = [
            row[:n] + [int(bv == j) for j in range(n, n + k)] + row[-1:]
            for row, bv in zip(tab, basis)
        ]
        # Artificial i is s_i times the rational one, so it costs L/s_i.
        # Reduced costs: minus the weighted column sums off the artificials,
        # 0 on them.
        lcm = math.lcm(*(scales[i] for i in short))
        weights = [lcm // s if bv >= n else 0 for s, bv in zip(scales, basis)]
        obj = [-sum(map(operator.mul, weights, col)) for col in zip(*tab)]
        obj[n : n + k] = [0] * k
        _, d = _iterate(tab, basis, obj, d, n + k)
        if obj[-1] != 0:
            return LpSolution(INFEASIBLE, None, None)

        drop = []
        for i in range(m):
            if basis[i] >= n:
                piv = next((j for j in range(n) if tab[i][j] != 0), None)
                if piv is None:
                    drop.append(i)
                else:
                    d = _pivot(tab, basis, None, d, i, piv)
        # A dropped row is zero on every real column, so no later pivot reads
        # it: the kept rows are the integers they would be beside it, and d
        # stays exact.
        for i in sorted(drop, reverse=True):
            del tab[i]
            del basis[i]
        for i in range(len(tab)):
            tab[i] = tab[i][:n] + tab[i][-1:]

    (cost,), (scale,) = _integer_rows([c])
    obj = [d * v for v in cost] + [0]
    for row, bv in zip(tab, basis):
        f = cost[bv]
        if f != 0:
            obj = [o - f * v for o, v in zip(obj, row)]
    status, d = _iterate(tab, basis, obj, d, n)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    # The point is d * x in integers; certify it before trusting it.
    point = [0] * n
    for row, bv in zip(tab, basis):
        point[bv] = row[-1]
    if (
        any(v < 0 for v in point)
        or any(sum(map(operator.mul, row, point)) != row[-1] * d for row in given)
        or sum(map(operator.mul, cost, point)) != -obj[-1]
    ):
        raise ArithmeticError("simplex optimum fails its certificate A x = b, x >= 0, c.x = value")
    return LpSolution(
        OPTIMAL,
        Fraction(-obj[-1], scale * d),
        tuple(Fraction(v, d) if v else _ZERO for v in point),
    )
