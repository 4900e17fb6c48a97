"""Hilbert-Samuel multiplicity of the ring presented by a datum.

Two routes are provided and never mixed:

  * `multiplicity` applies the structural rules.  It returns an exact value
    when the rule chain pins one down (dimension one; products over
    components; the reduce step when the reduced threshold is at least the
    child weight; tops whose children are all singletons) and otherwise a
    certified integer interval assembled from the known lower and upper
    bounds.  Each step is recorded in a trace.

  * `hilbert_samuel_table` measures colengths of powers of the maximal ideal
    directly on the semigroup of the ring and extracts the multiplicity from
    stabilized finite differences.  It is the ground truth the verification
    suite compares everything against, and it reports honestly when its
    budget was too small to stabilize (never a wrong value).  Its points are
    packed into single integers (one guard-bit field per coordinate, so a
    generator step is one add and the predecessor test one subtract), its
    longest-decomposition DP runs in degree order in the same pass as the
    closure, and its tables are cached per isomorphism class and budget.

`multiplicity_lower_bound` / `multiplicity_upper_bound` expose the full
bound family on their own: the floor-factor product and the group-order
power bound from below, the branching product and the power-of-two bound
2^(n - ceil(lct)) from above, plus the recursive reduce and component rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .datum import (
    SpecialDatum,
    canonical_form,
    children,
    maximal_elements,
    monomial_ideal,
    reduce,
    restrict,
    validate,
)
from .invariants import branching_product, floor_factor_product, group_order
from .lct import lct_datum

__all__ = [
    "OracleBudget",
    "TraceStep",
    "MultiplicityResult",
    "HilbertSamuelTable",
    "multiplicity",
    "multiplicity_lower_bound",
    "multiplicity_upper_bound",
    "hilbert_samuel_table",
]

EXACT = "exact"
INTERVAL = "interval"


@dataclass(frozen=True)
class OracleBudget:
    """Budget for the colength tabulation."""

    k_max: int = 12
    point_ceiling: int = 5_000_000


@dataclass(frozen=True)
class TraceStep:
    rule: str
    member: tuple[int, ...] | None = None


@dataclass(frozen=True)
class MultiplicityResult:
    status: str
    value: int | None
    lower: Fraction
    upper: Fraction
    trace: tuple[TraceStep, ...]

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def _exact(value: int, trace) -> MultiplicityResult:
    v = Fraction(value)
    return MultiplicityResult(EXACT, value, v, v, tuple(trace))


def _interval(lower: Fraction, upper: Fraction, trace) -> MultiplicityResult:
    if lower == upper:
        return _exact(int(lower), tuple(trace) + (TraceStep("interval-pinned"),))
    return MultiplicityResult(INTERVAL, None, lower, upper, tuple(trace))


def multiplicity(d: SpecialDatum) -> MultiplicityResult:
    """Structural multiplicity: exact where the rules decide, else an interval."""
    maxes = maximal_elements(d)
    if d.n == 1:
        return _exact(1, (TraceStep("dimension-one"),))
    if len(maxes) > 1:
        parts = [multiplicity(restrict(d, j)) for j in maxes]
        trace = (TraceStep("component-product"),)
        for p in parts:
            trace += p.trace
        if all(p.is_exact for p in parts):
            return _exact(math.prod(p.value for p in parts), trace)
        lower = math.prod((p.lower for p in parts), start=Fraction(1))
        upper = math.prod((p.upper for p in parts), start=Fraction(1))
        return _interval(lower, upper, trace)

    top = maxes[0]
    top_elems = d.elements_of(top)
    kids = children(d, top)
    r = d.weight_of(kids[0])
    red = reduce(d, top)
    reduced_lct = lct_datum(red)
    sub = multiplicity(red)

    if reduced_lct >= r:
        # The threshold of d equals reduced_lct / r here, which is the exact
        # equality case of the reduce rule.
        trace = (TraceStep("reduce-equality", top_elems),) + sub.trace
        if sub.is_exact:
            return _exact(r * sub.value, trace)
        return _interval(r * sub.lower, r * sub.upper, trace)

    if all(len(d.elements_of(k)) == 1 for k in kids):
        # One binomial relation: the ring is a hypersurface.
        return _exact(min(r, d.n), (TraceStep("hypersurface", top_elems),))

    # Open case (threshold is 1, some child is composite): certified interval.
    lower = max(
        floor_factor_product(d),
        reduced_lct * sub.lower,
        Fraction(d.n**d.n, group_order(d)),
    )
    lower_int = Fraction(math.ceil(lower))
    upper = min(
        Fraction(r) * sub.upper,
        Fraction(branching_product(d)),
        Fraction(2 ** (d.n - 1)),
    )
    trace = (TraceStep("interval-bounds", top_elems),) + sub.trace
    return _interval(lower_int, upper, trace)


def multiplicity_upper_bound(d: SpecialDatum) -> Fraction:
    """Least available upper bound for the multiplicity, as an exact rational."""
    cands = [
        Fraction(branching_product(d)),
        Fraction(2 ** (d.n - math.ceil(lct_datum(d)))),
    ]
    maxes = maximal_elements(d)
    if len(maxes) > 1:
        cands.append(
            math.prod((multiplicity_upper_bound(restrict(d, j)) for j in maxes), start=Fraction(1))
        )
    elif d.n >= 2:
        top = maxes[0]
        r = d.weight_of(children(d, top)[0])
        cands.append(r * multiplicity_upper_bound(reduce(d, top)))
    return min(cands)


def multiplicity_lower_bound(d: SpecialDatum) -> Fraction:
    """Greatest available lower bound for the multiplicity, as an exact rational."""
    lct = lct_datum(d)
    cands = [
        Fraction(1),
        floor_factor_product(d),
        (Fraction(d.n) / lct) ** d.n / group_order(d),
    ]
    maxes = maximal_elements(d)
    if len(maxes) > 1:
        cands.append(
            math.prod((multiplicity_lower_bound(restrict(d, j)) for j in maxes), start=Fraction(1))
        )
    elif d.n >= 2:
        top = maxes[0]
        r = d.weight_of(children(d, top)[0])
        red = reduce(d, top)
        reduced_lct = lct_datum(red)
        factor = Fraction(r) if reduced_lct >= r else reduced_lct
        cands.append(factor * multiplicity_lower_bound(red))
    return max(cands)


@dataclass(frozen=True)
class HilbertSamuelTable:
    """Colengths of the powers of the maximal ideal, with difference analysis.

    values[k-1] is the colength of the k-th power for k = 1..k_max.  The
    table is `stabilized` when the last three n-th finite differences agree;
    `e` is then that common value.  `aborted` means the point budget ran out
    before the tabulation finished: then values is empty, e is None and
    points is the count at which the closure stopped, point_ceiling + 1 for
    any ceiling >= 0.
    """

    n: int
    values: tuple[int, ...]
    stabilized: bool
    e: int | None
    points: int
    aborted: bool


def hilbert_samuel_table(d: SpecialDatum, budget: OracleBudget = OracleBudget()) -> HilbertSamuelTable:
    """Tabulate colengths directly on the semigroup of the ring.

    A monomial of the ring lies in the k-th power of the maximal ideal
    exactly when its exponent vector is a sum of at least k generator
    vectors, so the colength of the k-th power counts semigroup points whose
    longest decomposition into generators has fewer than k parts.  The
    longest-decomposition length satisfies a DAG recurrence over the
    semigroup ordered by coordinate sum.  Only reachable semigroup points
    are generated (closure under adding generators, up to the degree bound
    k_max times the largest generator degree), which keeps the visited set
    a |G|-th of the ambient simplex.

    The table depends only on the isomorphism class and the budget, so it is
    cached (least recently used, `_TABLE_CACHE_SIZE` entries) under the key
    (canonical form, budget).  Relabelings of one valid datum share an
    entry.  A datum that fails validation has no trustworthy canonical form
    and is keyed by its own labels instead.  See `_tabulate` for the packed
    encoding of the points.
    """
    key = canonical_form(d)[0] if validate(d).ok else d
    return _tabulate(key, budget)


_TABLE_CACHE_SIZE = 1024


def _pack(v: tuple[int, ...], width: int) -> int:
    """One integer with coordinate i in bits [i*width, (i+1)*width)."""
    packed = 0
    for i, x in enumerate(v):
        packed |= x << (i * width)
    return packed


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tabulate(d: SpecialDatum, budget: OracleBudget) -> HilbertSamuelTable:
    """The colength table of `d`, on points packed into single integers.

    A point is one int with a field of w = bound.bit_length() + 1 bits per
    coordinate.  No coordinate of a point within the degree bound exceeds
    `bound`, so the top bit of every field (the guard bit, all of them in
    `guard`) is free: adding a generator is one integer add that never
    carries between fields.  The predecessor test sets every guard bit and
    subtracts: q = (p | guard) - g keeps each field's guard bit exactly
    when that coordinate of p is at least the one of g, so p covers g iff
    q & guard == guard, and the predecessor p - g is then q ^ guard.

    Points are visited in order of degree (coordinate sum), one bucket per
    degree.  Every generator has positive degree, so when a bucket comes up
    all its points have been found and all their predecessors already carry
    their final longest-decomposition length; the DP runs in the same pass
    as the closure, with no sort.  One dict is both the visited set and the
    DP table.  `point_ceiling` is checked on every insertion.
    """
    n, k_max, ceiling = d.n, budget.k_max, budget.point_ceiling
    gens = monomial_ideal(d).generators
    bound = k_max * max(sum(g) for g in gens)
    width = max(bound, 0).bit_length() + 1
    guard = _pack((1 << (width - 1),) * n, width)
    # A generator above the degree bound reaches no point within it.
    packed = [(sum(g), _pack(g, width)) for g in gens if sum(g) <= bound]

    longest = {0: 0}
    if len(longest) > ceiling:
        return HilbertSamuelTable(n, (), False, None, len(longest), True)
    histogram = [0] * k_max
    buckets: list[list[int]] = [[0]] + [[] for _ in range(bound)]
    for degree in range(bound + 1):
        bucket = buckets[degree]
        buckets[degree] = []
        below = [g for dg, g in packed if dg <= degree]
        above = [(g, buckets[degree + dg]) for dg, g in packed if degree + dg <= bound]
        for p in bucket:
            if p:
                lifted = p | guard
                best = -1
                for g in below:
                    q = lifted - g
                    if q & guard == guard:
                        lq = longest.get(q ^ guard, -1)
                        if lq > best:
                            best = lq
                if best < 0:
                    raise ArithmeticError(
                        f"reachable point of degree {degree} lost its predecessors"
                    )
                best += 1
                longest[p] = best
            else:
                best = 0
            if best < k_max:
                histogram[best] += 1
            for g, out in above:
                q = p + g
                if q not in longest:
                    # Placeholder: the length is set when q's bucket comes up.
                    longest[q] = 0
                    if len(longest) > ceiling:
                        return HilbertSamuelTable(n, (), False, None, len(longest), True)
                    out.append(q)

    values = []
    total = 0
    for k in range(k_max):
        total += histogram[k]
        values.append(total)

    diffs = values
    for _ in range(n):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    stabilized = len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]
    e = diffs[-1] if stabilized else None
    return HilbertSamuelTable(n, tuple(values), stabilized, e, len(longest), False)
