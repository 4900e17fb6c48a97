"""Log canonical thresholds of the monomial ideals attached to data.

The queries here are about the Newton polyhedron
Newt(a) = conv(generator exponents) + nonnegative orthant:

  * `newton_contains` decides p in Newt(a) by an exact LP and returns the
    convex-combination certificate on success;
  * `lct_lp` computes the threshold as 1/u* where u* is the least u with
    (u, .., u) in Newt(a);
  * `lct_datum` computes the same number structurally: 1 in dimension one,
    additive over the components of a disconnected datum, and
    max{1, lct(reduced)/r} for a connected datum whose top member has
    children of weight r, once per isomorphism class of subtree;
  * `find_closure_power` decides whether the integral closure of the ideal
    is a power m^q of the maximal ideal from the member degrees alone: the
    closure of a monomial ideal is given by the lattice points of its Newton
    polyhedron, and the n vertices q*e_i of Newt(m^q) are the datum's own
    singleton generators, so no LP is needed.

Both LPs are one packing LP, max{sum(mu) : mu >= 0, sum_g mu_g*g <= rhs}
with an integer rhs >= 0 (`_packing_lp`): p is in Newt(a) exactly when
some lam in the simplex has sum_g lam_g*g <= p, so with D*p integral the
optimum is at least D exactly when p is in Newt(a), and lam = mu/sum(mu).
`lp.solve_min` solves it on integers from its n slack columns, and each
generator g gets the primitive column g/gcd(g), which changes no value
and no pivot and keeps the integer tableau small: with the columns
w_J*1_J of a datum as given, the tableau's minors are products of weights,
which grow with the depth of the datum.

The two lct routes are deliberately independent and are cross-checked over
whole enumeration budgets by the verification suite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import lp
from ._record import Record
from .datum import (
    LEAF,
    NODE_KIDS,
    NODE_RATIO,
    ClassMemo,
    MonomialIdeal,
    SpecialDatum,
    member_forest,
)

__all__ = [
    "LpCertificate",
    "newton_contains",
    "lct_lp",
    "lct_datum",
    "find_closure_power",
]


class LpCertificate(Record):
    """Convex weights proving a containment claim.

    `coefficients` maps generator index (into MonomialIdeal.generators) to
    a positive `Fraction`; the weights sum to 1 and the weighted generator
    sum is dominated coordinatewise by the certified point.
    """

    __slots__ = ("coefficients",)


def _check_point(a: MonomialIdeal, p) -> tuple[Fraction, ...]:
    if len(p) != a.n:
        raise ValueError(f"point has {len(p)} coordinates, ideal lives in {a.n}")
    q = tuple(Fraction(x) for x in p)
    if any(x < 0 for x in q):
        raise ValueError(f"point {p} has a negative coordinate")
    return q


def _packing_lp(a: MonomialIdeal, rhs) -> tuple[Fraction, lp.LpSolution, list[int]]:
    """(max sum(mu), the solution, [c_g]) over mu >= 0 with sum_g mu_g*g <= rhs.

    `rhs` holds ints >= 0.  The LP is `lp.solve_min`'s: the n slack columns,
    then the primitive column g/c_g of each generator, c_g = gcd(g), whose
    variable is x_g = c_g*mu_g; its cost is -L/c_g with L the lcm of the
    c_g, so the minimum is -L*max sum(mu).  Against the generators as given
    (cost -1 each) this rescales columns and the objective by positive
    numbers, which keeps every pivot: Bland's rule reads the signs of
    reduced costs, and a ratio test compares entries of one column, all
    scaled alike.  A generator is never zero, so the optimum is finite.
    """
    scale = [math.gcd(*g) for g in a.generators]
    columns = [g if c == 1 else [x // c for x in g] for g, c in zip(a.generators, scale)]
    lcm = math.lcm(*scale)
    sol = lp.solve_min(columns, [-(lcm // c) for c in scale], rhs)
    if sol.status != lp.OPTIMAL:
        raise ArithmeticError(f"the packing LP is {sol.status}")
    return -sol.value / lcm, sol, scale


def newton_contains(a: MonomialIdeal, p) -> tuple[bool, LpCertificate | None]:
    """Decide p in conv(generators) + orthant, with certificate when true.

    The packing LP (`_packing_lp`) runs at rhs D*p, with D the lcm of p's
    denominators: p is in Newt(a) exactly when its optimum s is at least D.
    The certificate's convex weights are mu_g/s, with mu_g = x_g/(gcd(g)*d)
    read from the LP's integer point x over its denominator d.
    """
    q = _check_point(a, p)
    den = math.lcm(*(v.denominator for v in q))
    total, sol, scale = _packing_lp(a, [v.numerator * (den // v.denominator) for v in q])
    if total < den:
        return False, None
    coeffs = {i: Fraction(v, c * sol.d) / total for i, (v, c) in enumerate(zip(sol.x, scale)) if v}
    return True, LpCertificate(coeffs)


def lct_lp(a: MonomialIdeal) -> Fraction:
    """Threshold as the packing LP max{sum(mu) : mu >= 0, sum_g mu_g*g <= (1,..,1)}.

    The threshold is 1/u* with u* the least u such that u*(1,..,1) is in
    Newt(a), and u*(1,..,1) is in Newt(a) exactly when some lam in the
    simplex has sum_g lam_g*g <= u*(1,..,1).  For u > 0, mu = lam/u is
    feasible here with sum(mu) = 1/u; conversely a feasible mu with
    s = sum(mu) > 0 gives lam = mu/s and u = 1/s.  So max sum(mu) = 1/u*.
    """
    if not a.generators:
        raise ArithmeticError("the zero ideal has no log canonical threshold")
    return _packing_lp(a, [1] * a.n)[0]


def _reduced_lct(x: int) -> Fraction:
    """Threshold of the reduced datum of the tree x: the sum over its children."""
    return sum((class_lct[k] for k in NODE_KIDS[x]), Fraction(0))


def _lct_class(x: int) -> Fraction:
    return Fraction(1) if x == LEAF else max(Fraction(1), reduced_lct[x] / NODE_RATIO[x])


# Per class node, each computed once: the reduced datum's threshold and the tree's.
reduced_lct = ClassMemo(_reduced_lct)
class_lct = ClassMemo(_lct_class)


def lct_datum(d: SpecialDatum) -> Fraction:
    """Threshold by structural recursion on the class nodes of `member_forest`.

    1 on a leaf, max{1, lct(reduced)/r} on a tree whose top has children of
    ratio r (the reduced datum is the forest of those children), and the
    sum over the components of a forest.  `class_lct` holds each class
    node's value, computed once.
    """
    return sum((class_lct[x] for x in member_forest(d).root_nodes), Fraction(0))


def find_closure_power(d: SpecialDatum) -> int | None:
    """The q with closure(a_d) = (x_1,..,x_n)^q, if one exists.

    The closure meets the i-th axis in the powers of x_i from the weight of
    {i} on, so q must be the common singleton weight.  For that q,
    closure(a_d) is in m^q iff every generator x_J^{w_J} has degree
    |J|*w_J >= q (m^q is integrally closed), and m^q is in closure(a_d)
    always, as the vertices q*e_i of Newt(m^q) are the generators x_i^q.
    """
    singles = [m.weight for m in d.members if len(m.elements) == 1]
    if not singles:
        raise ValueError("a candidate without singleton members has no closure power")
    q = singles[0]
    if any(w != q for w in singles):
        return None
    if any(len(m.elements) * m.weight < q for m in d.members):
        return None
    lct = lct_datum(d)
    if q * lct != d.n:
        raise ArithmeticError(
            f"closure power {q} times the threshold {lct} is not the dimension {d.n}"
        )
    return q
