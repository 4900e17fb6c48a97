"""Exact linear programming over the rationals, on integers.

A primal simplex with Bland's rule for anti-cycling, on a dense tableau of
Python integers: no revised updates and no floating point, as exactness is
the whole point.  It runs one phase, from a starting basis the rows carry:
every LP of the package is a packing LP max{sum(mu) : mu >= 0,
sum_g mu_g*g <= rhs} with rhs >= 0, whose slack columns are that basis.

The tableau is fraction-free (Bareiss's integer-preserving elimination, as
in Avis's `lrs`).  Each input row i is scaled by its own denominator lcm
s_i, which gives an integer matrix M; the tableau is T = d * B^-1 M in
Python `int`s, where B is the current basis of M and d = |det B| is one
common denominator.  A pivot on p = T[r][s] > 0 replaces every other row k
by (p * T[k] - T[k][s] * T[r]) / d and makes d = p.  By Cramer's rule
every entry of the new tableau is a minor of M, so that division is always
exact.  Every decision of the simplex compares signs or cross-multiplied
ratios, which the positive d does not change, so the pivots are the ones a
rational tableau would make.

Row i starts from the first column that holds 1 in M's row i and 0 in every
other row (its slack), so the starting basis is the identity, feasible as
M's right-hand side is >= 0, and d starts at 1.  A row with a negative
right-hand side or without such a column is refused with `ValueError`.
Scaling a row by s_i is a positive rescaling, which keeps every sign and
every ratio comparison and so every pivot.  What it saves against scaling
every row by the product of all the lcms is interpreter work (no division
while d == 1), not smaller numbers.  On `lct_lp` of `chain(3,...,3)` with
n = 20, 40 and 80, d stays 1 and every entry off the objective row is 0 or
+-1 through all n pivots.

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
UNBOUNDED = "unbounded"


class LpSolution(Record):
    """`status` is OPTIMAL or UNBOUNDED; the optimal `value` (a `Fraction`)
    and point `x` (a tuple of `Fraction`s) are None otherwise."""

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
    """Pivot on (r, s), whose entry is positive; returns the new denominator."""
    row = tab[r]
    p = row[s]
    nz = list(filter(_entry, enumerate(row))) if p == d else None
    for k, v in enumerate(tab):
        # With p == d a row that is 0 in column s keeps every entry.
        if k != r and (v[s] or p != d):
            tab[k] = _eliminate(v, row, nz, p, d, s)
    obj[:] = _eliminate(obj, row, nz, p, d, s)
    basis[r] = s
    return p


def _iterate(tab, basis, obj):
    """Run Bland-rule pivots from d = 1; returns (OPTIMAL or UNBOUNDED, d)."""
    d, ncols = 1, len(obj) - 1
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
    `Fraction`s.  Each row is scaled by its denominator lcm and starts from
    the first column that is 1 in it and 0 in every other row.  A row with
    a negative right-hand side or without such a column raises
    `ValueError`: the LP must carry its feasible starting basis, as a
    packing LP's slacks are.
    """
    m, n = len(A), len(c)
    given, _ = _integer_rows([[*A[i], b[i]] for i in range(m)])
    tab = [row[:] for row in given]
    basis = [None] * m
    for j, col in zip(range(n), zip(*tab)):
        if col.count(0) == m - 1 and 1 in col and basis[col.index(1)] is None:
            basis[col.index(1)] = j
    for i, (row, bv) in enumerate(zip(tab, basis)):
        if row[-1] < 0:
            raise ValueError(f"row {i} has a negative right-hand side")
        if bv is None:
            raise ValueError(f"row {i} has no unit column to start from")

    (cost,), (scale,) = _integer_rows([c])
    obj = cost + [0]
    for row, bv in zip(tab, basis):
        f = cost[bv]
        if f != 0:
            obj = [o - f * v for o, v in zip(obj, row)]
    status, d = _iterate(tab, basis, obj)
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
