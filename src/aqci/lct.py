"""Log canonical thresholds of the monomial ideals attached to data.

Every query here reduces to exact membership in the Newton polyhedron
Newt(a) = conv(generator exponents) + nonnegative orthant:

  * `newton_contains` decides p in Newt(a) by an exact feasibility LP and
    returns the convex-combination certificate on success;
  * `lct_lp` computes the threshold as 1/u* where u* is the least u with
    (u, .., u) in Newt(a), again by LP;
  * `lct_datum` computes the same number structurally: 1 in dimension one,
    additive over the components of a disconnected datum, and
    max{1, lct(reduced)/r} for a connected datum whose top member has
    children of weight r, once per isomorphism class of subtree;
  * `multiplier_membership` decides interior membership of m + (1,..,1) in
    t*Newt(a), which is exact because Newt(a) is closed under adding the
    orthant: a point is interior iff some uniform positive shift down stays
    inside;
  * `closure_is_power` checks whether the integral closure of the ideal is
    exactly the q-th power of the maximal ideal, using the lattice-point
    description of the closure of a monomial ideal.

The two lct routes are deliberately independent and are cross-checked over
whole enumeration budgets by the verification suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .datum import (
    LEAF,
    NODE_KIDS,
    NODE_RATIO,
    ClassMemo,
    MonomialIdeal,
    SpecialDatum,
    member_forest,
    monomial_ideal,
)

__all__ = [
    "LpCertificate",
    "BudgetExceededError",
    "newton_contains",
    "lct_lp",
    "lct_datum",
    "multiplier_membership",
    "closure_is_power",
    "find_closure_power",
]


class BudgetExceededError(RuntimeError):
    """An exhaustive computation was refused because it would be too large."""


@dataclass(frozen=True)
class LpCertificate:
    """Convex weights proving a containment claim.

    `coefficients` maps generator index (into MonomialIdeal.generators) to a
    nonnegative rational; the weights sum to 1 and the weighted generator sum
    is dominated coordinatewise by the certified point divided by `value`
    (value = 1 for plain containment queries).
    """

    value: Fraction
    coefficients: dict[int, Fraction]


def _check_point(a: MonomialIdeal, p) -> tuple[Fraction, ...]:
    if len(p) != a.n:
        raise ValueError(f"point has {len(p)} coordinates, ideal lives in {a.n}")
    q = tuple(Fraction(x) for x in p)
    if any(x < 0 for x in q):
        raise ValueError(f"point {p} has a negative coordinate")
    return q


def newton_contains(a: MonomialIdeal, p) -> tuple[bool, LpCertificate | None]:
    """Decide p in conv(generators) + orthant, with certificate when true."""
    p = _check_point(a, p)
    gens = a.generators
    m, n = len(gens), a.n
    # Variables: convex weights (m), slacks (n).
    rows = []
    rhs = []
    for j in range(n):
        rows.append([g[j] for g in gens] + [int(j == k) for k in range(n)])
        rhs.append(p[j])
    rows.append([1] * m + [0] * n)
    rhs.append(1)
    sol = lp.solve_min([0] * (m + n), rows, rhs)
    if sol.status != lp.OPTIMAL:
        return False, None
    coeffs = {i: sol.x[i] for i in range(m) if sol.x[i] != 0}
    return True, LpCertificate(Fraction(1), coeffs)


def lct_lp(a: MonomialIdeal) -> Fraction:
    """Threshold via the diagonal: minimize u with (u,..,u) in Newt(a)."""
    gens = a.generators
    m, n = len(gens), a.n
    # Variables: convex weights (m), u (1), slacks (n).
    rows = []
    rhs = []
    for j in range(n):
        rows.append([g[j] for g in gens] + [-1] + [int(j == k) for k in range(n)])
        rhs.append(0)
    rows.append([1] * m + [0] * (n + 1))
    rhs.append(1)
    c = [0] * m + [1] + [0] * n
    sol = lp.solve_min(c, rows, rhs)
    if sol.status != lp.OPTIMAL or sol.value <= 0:
        raise ArithmeticError(f"diagonal scaling LP failed: {sol.status}")
    return 1 / sol.value


def reduced_lct(x: int) -> Fraction:
    """Threshold of the reduced datum of the tree x: the sum over its children."""
    return sum((class_lct[k] for k in NODE_KIDS[x]), Fraction(0))


def _lct_class(x: int) -> Fraction:
    return Fraction(1) if x == LEAF else max(Fraction(1), reduced_lct(x) / NODE_RATIO[x])


class_lct = ClassMemo(_lct_class)


def lct_datum(d: SpecialDatum) -> Fraction:
    """Threshold by structural recursion on the class nodes of `member_forest`.

    1 on a leaf, max{1, lct(reduced)/r} on a tree whose top has children of
    ratio r (the reduced datum is the forest of those children), and the
    sum over the components of a forest.  `class_lct` holds each class
    node's value, computed once.
    """
    return sum((class_lct[x] for x in member_forest(d).root_nodes), Fraction(0))


def multiplier_membership(a: MonomialIdeal, t: Fraction, m) -> bool:
    """Is m + (1,..,1) in the interior of t*Newt(a)?

    Decided exactly by maximizing the uniform shift eps with
    m + (1,..,1) - eps*(1,..,1) in t*Newt(a); interior membership is
    equivalent to a strictly positive optimum because the region is closed
    under adding the orthant.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError(f"scaling factor must be positive, got {t}")
    m = _check_point(a, m)
    gens = a.generators
    k, n = len(gens), a.n
    # Variables: convex weights (k), eps+ (1), eps- (1), slacks (n).
    rows = []
    rhs = []
    for j in range(n):
        rows.append([t * g[j] for g in gens] + [1, -1] + [int(j == i) for i in range(n)])
        rhs.append(m[j] + 1)
    rows.append([1] * k + [0] * (n + 2))
    rhs.append(1)
    c = [0] * k + [-1, 1] + [0] * n
    sol = lp.solve_min(c, rows, rhs)
    if sol.status != lp.OPTIMAL:
        raise ArithmeticError(f"shift-maximization LP failed: {sol.status}")
    return -sol.value > 0


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def closure_is_power(a: MonomialIdeal, q: int, point_ceiling: int = 10**6) -> bool:
    """Does the integral closure of `a` equal the q-th power of (x_1,..,x_n)?

    Containment in the power holds iff every generator has degree >= q; the
    reverse containment holds iff every degree-q exponent vector lies in
    Newt(a).  Refuses (BudgetExceededError) if the number of degree-q vectors
    exceeds `point_ceiling`.
    """
    if q < 1:
        raise ValueError(f"power must be >= 1, got {q}")
    if any(sum(g) < q for g in a.generators):
        return False
    count = math.comb(q + a.n - 1, a.n - 1)
    if count > point_ceiling:
        raise BudgetExceededError(
            f"{count} degree-{q} exponent vectors exceed the ceiling {point_ceiling}"
        )
    for p in _compositions(q, a.n):
        inside, _ = newton_contains(a, p)
        if not inside:
            return False
    return True


def find_closure_power(d: SpecialDatum, point_ceiling: int = 10**6) -> int | None:
    """The q with closure(a_d) = (x_1,..,x_n)^q, if one exists.

    Only a common singleton weight can be such a q (the closure meets the
    i-th axis exactly at multiples of the singleton weight of {i} at or above
    it), so nothing else needs testing.
    """
    singles = [m.weight for m in d.members if len(m.elements) == 1]
    q = singles[0]
    if any(w != q for w in singles):
        return None
    if not closure_is_power(monomial_ideal(d), q, point_ceiling):
        return None
    lct = lct_datum(d)
    if q * lct != d.n:
        raise ArithmeticError(
            f"closure power {q} times the threshold {lct} is not the dimension {d.n}"
        )
    return q
