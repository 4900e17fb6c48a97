"""Exact linear programming on integers: the packing LP of the package.

Every LP the package poses is min c.x over [I | C] x = rhs, x >= 0, with
integer columns C, integer costs c on them (the n slack columns I cost 0)
and an integer rhs >= 0: in `lct` the columns are the primitive generators
g/gcd(g).  `solve_min` builds its tableau once, in Python `int`s, with the
n slacks as the starting basis, feasible because rhs >= 0, and runs one
phase of the primal simplex under Bland's rule for anti-cycling: no revised
updates and no floating point, as exactness is the whole point.  A
negative right-hand side is refused with `ValueError`.

The tableau is fraction-free (Bareiss's integer-preserving elimination, as
in Avis's `lrs`): T = d * B^-1 M in `int`s, where M = [I | C | rhs], B is
the current basis of M and d = |det B| is one common denominator, 1 at the
slack basis.  A pivot on p = T[r][s] > 0 replaces every other row k by
(p * T[k] - T[k][s] * T[r]) / d and makes d = p.  By Cramer's rule every
entry of the new tableau is a minor of M, so that division is always
exact.  Every decision of the simplex compares signs or cross-multiplied
ratios, which the positive d does not change, so the pivots are the ones a
rational tableau would make.  On `lct_lp` of `chain(3,...,3)` with n = 20,
40 and 80, d stays 1 and every entry off the objective row is 0 or +-1
through all n pivots.

When p == d, an entry whose pivot-row entry is 0 keeps its value,
(a * p - f * 0) / d = a, so the update touches only the pivot row's nonzero
(column, entry) pairs, listed once per pivot.  On the LPs of `lct` (0/1
columns) that is nearly every pivot, and a pivot row is mostly zeros.
Otherwise every entry is updated.

Before an optimum is returned its point is certified against the input:
[I | C] x = rhs * d, x >= 0 and c.x = value * d are checked exactly in
integers, and a failure raises `ArithmeticError`.  The point comes back as
ints over d; the only `Fraction` built is the optimal value.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ._record import Record

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LpSolution(Record):
    """`status` is OPTIMAL or UNBOUNDED.  At an optimum `value` is the minimum
    (a `Fraction`) and column j of C has the coordinate x[j]/d in an optimal
    point, where `solve_min` gives ints x[j] and the positive int d; `value`
    and `x` are None when the LP is unbounded.  `d` defaults to 1."""

    __slots__ = ("status", "value", "x", "d")
    _defaults = {"d": 1}


def _eliminate(v, row, nz, p, d, s):
    """v with column s cleared against the pivot row (pivot p, old denominator d).

    `nz` lists the pivot row's nonzero (column, entry) pairs.  When p == d an
    entry whose pivot-row entry b is 0 keeps its value, (a*p - f*0)/d = a, so
    only the columns in `nz` change, in place: a - f*b/d, exact because the
    new entry is an integer; while d == 1 nothing is divided.  Otherwise
    every entry changes and a new list is made, (a*p - f*b)/d each.
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


_entry = operator.itemgetter(1)


def solve_min(columns, costs, rhs) -> LpSolution:
    """Minimize costs.x over [I | C] (slack, x) = rhs, slack >= 0, x >= 0, exactly.

    `columns` are the columns of C, each a sequence of len(rhs) ints,
    `costs` one int per column and `rhs` ints >= 0; a negative right-hand
    side raises `ValueError`.  The tableau starts from the slack basis, so
    an LP without columns still has its len(rhs) slack rows.
    """
    n = len(rhs)
    tab = []
    for i, b in enumerate(rhs):
        if b < 0:
            raise ValueError(f"row {i} has a negative right-hand side")
        row = [0] * n
        row[i] = 1
        row += map(operator.itemgetter(i), columns)
        row.append(b)
        tab.append(row)
    basis = list(range(n))
    obj = [0] * n + [*costs, 0]
    status, d = _iterate(tab, basis, obj)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, 1)

    # The point is d * (slack, x) in integers; certify it before trusting it.
    point = [0] * (len(obj) - 1)
    for row, bv in zip(tab, basis):
        point[bv] = row[-1]
    lhs, x = point[:n], point[n:]
    for col, v in zip(columns, x):
        if v:
            for i, a in enumerate(col):
                lhs[i] += a * v
    if (
        min(point, default=0) < 0
        or lhs != [b * d for b in rhs]
        or sum(map(operator.mul, costs, x)) != -obj[-1]
    ):
        raise ArithmeticError("simplex optimum fails its certificate A x = b, x >= 0, c.x = value")
    return LpSolution(OPTIMAL, Fraction(-obj[-1], d), tuple(x), d)
