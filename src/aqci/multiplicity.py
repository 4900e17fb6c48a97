"""Hilbert-Samuel multiplicity of the ring presented by a datum.

Two routes are provided and never mixed:

  * `multiplicity` reads the structural bound envelope: one integer
    interval [lower, upper] per class node (`_envelope`), from the reduce
    rule and the branching product, multiplied over components.  The
    paper's floor-factor product, group-order power bound and power-of-two
    bound are proved never to move an end.  The value is exact when the
    interval is one point, which the rule chain forces in dimension one,
    in the reduce step when the reduced threshold is at least the child
    weight, and at tops whose children are all singletons; otherwise it is
    the certified interval.  The rule of each member is recorded in a
    trace.

  * `hilbert_samuel_table` measures colengths of powers of the maximal ideal
    directly on the semigroup of the ring and extracts the multiplicity from
    stabilized finite differences.  It is the ground truth the verification
    suite compares everything against, and it reports honestly when its
    budget was too small to stabilize (never a wrong value).  Its points are
    packed into single integers (one field per coordinate, then the degree
    and a second positive functional phi on top, so a generator step is
    one add), and its longest-decomposition DP is an unbounded knapsack,
    one pass per generator, in place in one dict.  A pass walks the rays
    of its generator upward from the ray starts only (the stored points
    whose predecessor on the ray is not stored) and touches every point
    once; the last pass stores none of its new points and counts each
    point's final length straight into the histogram.  The walk covers
    only the points within a cap on the degree and one on phi that every
    sum of fewer than k_max generators meets: a set closed under
    subtracting generators, so the knapsack is exact on it.  One rule
    gives the caps for every generator set; a run-time certificate
    (the semigroup is its residues mod the pure powers a_i*e_i plus the
    multiples of those powers) only tightens the cap on phi.  The point
    ceiling bounds the entries of every table, stored or counted, a wide
    entry counting once per started 256 bits.  Tables are cached per
    isomorphism class and budget.

`multiplicity_lower_bound` / `multiplicity_upper_bound` return the two
ends of that same envelope on their own.
"""

from __future__ import annotations

import functools
import math

from ._record import Record
from .datum import (
    LEAF,
    NODE_KIDS,
    NODE_LEAVES,
    NODE_RATIO,
    ClassMemo,
    SpecialDatum,
    canonical_form,
    exact_decimal,
    member_forest,
    monomial_ideal,
    validate,
)
from .invariants import class_branching
from .lct import reduced_lct

__all__ = [
    "OracleBudget",
    "TraceStep",
    "MultiplicityResult",
    "HilbertSamuelTable",
    "multiplicity",
    "multiplicity_lower_bound",
    "multiplicity_upper_bound",
    "hilbert_samuel_table",
    "result_payload",
    "table_payload",
]

EXACT = "exact"
INTERVAL = "interval"


DEFAULT_K_MAX = 12
DEFAULT_POINT_CEILING = 5_000_000


class OracleBudget(Record):
    """Budget for the colength tabulation."""

    __slots__ = ("k_max", "point_ceiling")
    _defaults = {"k_max": DEFAULT_K_MAX, "point_ceiling": DEFAULT_POINT_CEILING}


# The oracle is stabilized when its last STABLE_RUN n-th differences agree.
# k_max colengths have k_max - n of them, so it needs k_max >= n + STABLE_RUN.
STABLE_RUN = 3


class TraceStep(Record):
    """One rule of a structural derivation, on the elements of its member
    (a tuple of ints, None by default)."""

    __slots__ = ("rule", "member")
    _defaults = {"member": None}


# Trace steps are frozen, so traces share them.  The cache is bounded: a
# step on a top of k elements holds k ints, and a chain of n elements has
# tops of every size up to n.
_STEP_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_STEP_CACHE_SIZE)
def _step(rule: str, size: int = 0) -> TraceStep:
    """The step of `rule` on a top member relabeled to 1..size (no member if 0)."""
    return TraceStep(rule, tuple(range(1, size + 1)) if size else None)


class MultiplicityResult(Record):
    """`status` is EXACT, with the int `value`, or INTERVAL, with value None;
    `lower` and `upper` are ints, `trace` a tuple of `TraceStep`s."""

    __slots__ = ("status", "value", "lower", "upper", "trace")

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def _envelope(x: int) -> tuple[int, int]:
    """(lower, upper): the integer bounds on the multiplicity of the tree x.

    A leaf gets (1, 1).  A tree with child weight ratio r, reduced
    threshold R = `reduced_lct[x]` and children k gets
    lower = ceil(min(r, R) * prod lower(k)) and
    upper = min(branching product, r * prod upper(k)).  Beside the
    branching product, these are the reduce rule: the reduced datum of x is
    the forest of its children, whose multiplicity is the product of
    theirs, and e = r * e(reduced) when R >= r, e >= R * e(reduced)
    otherwise.  The ceiling only turns an integral Fraction into an int:
    R * prod lower(k) is an integer by induction, as each child's
    threshold l_k is 1, or R_k/r_k with lower(k) = r_k * prod lower(k's
    children).

    The paper's other bounds, max(1, floor-factor product F),
    (n/lct)^n/|G| and 2^(n - ceil lct), never move an end: each proof is
    an induction over class nodes (at a leaf every bound is 1).  Write
    n_k and l_k for child k's leaf count and threshold, so R = sum l_k,
    lct = max(1, R/r) and |G| = r^(n-1) * prod |G_k|.

      * Floor product: F(x) = min(r, R) * prod F(k) <= lower(x), because
        lower(k) >= F(k).  The lower end is at least 2 (r >= 2, R >= 2),
        so 1 never decides it either.
      * (n/lct)^n/|G| <= F(x): by induction F(k) * |G_k| >=
        (n_k/l_k)^(n_k), and the weighted power inequality
        prod (n_k/l_k)^(n_k) >= (n/R)^n, which
        `verify.product_concavity_grid` checks, gives
        F(x) * |G| >= min(r, R) * r^(n-1) * (n/R)^n.  That equals
        (n/lct)^n when R >= r, and is n^n * (r/R)^(n-1) >= n^n when R < r.
      * upper(x) <= 2^(n - ceil lct): if R <= r then lct = 1, and with m
        children of branching products b(k) <= 2^(n_k - 1),
        upper <= m * prod b(k) <= m * 2^(n-m) <= 2^(n-1).  If R > r, then
        upper <= r * prod 2^(n_k - ceil l_k) <= r * 2^(n - ceil R)
        <= 2^(n - ceil(R/r)), as a <= 2^(ceil b - ceil(b/a)) for
        b >= a >= 2 (`verify.ceiling_power_grid` checks it):
        ceil b - ceil(b/a) > b - b/a - 1 >= a - 2, so it is at least
        a - 1, and 2^(a-1) >= a.

    So the two rules give the interval that all the paper's bounds give.
    By the same induction the envelope is never looser than the interval
    that the rule of x (`_rule`) gives from its children's.  Under
    "reduce-equality" the rule gives r times the children's interval.
    Under "hypersurface" (n leaf children, reduced lct n < r) the lower end
    is n and the branching product is n, so the envelope pins e = n.  Under
    "interval-bounds" the threshold is 1, and the rule's bounds (the floor
    product, R times the children's lower ends and n^n/|G| from below;
    r times the children's upper ends, the branching product and 2^(n-1)
    from above) are all dominated as shown.  So the rules decide e exactly
    iff lower == upper.
    """
    if x == LEAF:
        return 1, 1
    r, (kids_lower, kids_upper) = NODE_RATIO[x], _product(NODE_KIDS[x])
    return math.ceil(min(r, reduced_lct[x]) * kids_lower), min(class_branching[x], r * kids_upper)


_class_envelope = ClassMemo(_envelope)


# Over components the bounds are the products of the components' bounds.
# The paper's bounds on the whole forest stay dominated: the floor-factor
# and branching products are products over the components too,
# 2^(n - ceil lct) is at least the product of theirs (sum ceil >= ceil
# sum), and (n/lct)^n/|G| at most the product of theirs (the weighted
# power inequality of `verify.product_concavity_grid`).


def _product(nodes) -> tuple[int, int]:
    """The envelope of the forest of the trees `nodes`."""
    ends = [_class_envelope[x] for x in nodes]
    return math.prod(lo for lo, _ in ends), math.prod(hi for _, hi in ends)


def _rule(x: int) -> str:
    """The structural rule that the trace records for the tree x."""
    if x == LEAF:
        return "dimension-one"
    if reduced_lct[x] >= NODE_RATIO[x]:
        # The threshold of the tree equals reduced_lct / r here, which is the
        # exact equality case of the reduce rule.
        return "reduce-equality"
    if all(k == LEAF for k in NODE_KIDS[x]):
        # One binomial relation: the ring is a hypersurface.
        return "hypersurface"
    # Open case (threshold is 1, some child is composite).
    return "interval-bounds"


def multiplicity(d: SpecialDatum) -> MultiplicityResult:
    """Structural multiplicity: exact where the envelope pins it, else an interval.

    The value depends only on the class; the trace walks the member forest
    in label order.  A tree records its rule on its top member (relabeled
    to 1..size, as `restrict` would) and, after "reduce-equality" or
    "interval-bounds", the trace of its reduced datum, then
    "interval-pinned" if its rule leaves it open (an open child, or
    "interval-bounds") but its envelope is one value; a forest of two or
    more trees records "component-product" and then each tree's trace.
    """
    f = member_forest(d)
    lower, upper = _product(f.root_nodes)
    trace: list[TraceStep] = []
    stack: list = [f.roots]
    while stack:
        item = stack.pop()
        if isinstance(item, TraceStep):
            trace.append(item)
        elif len(item) > 1:
            stack.extend((j,) for j in reversed(item))
            trace.append(_step("component-product"))
        else:
            x = f.node[item[0]]
            rule, (lo, hi) = _rule(x), _class_envelope[x]
            kids = (_class_envelope[k] for k in NODE_KIDS[x])
            if lo == hi and (rule == "interval-bounds" or any(a != b for a, b in kids)):
                stack.append(_step("interval-pinned"))
            if rule in ("reduce-equality", "interval-bounds"):
                stack.append(f.kids[item[0]])
            trace.append(_step(rule, NODE_LEAVES[x] if x != LEAF else 0))
    if lower == upper:
        return MultiplicityResult(EXACT, lower, lower, upper, tuple(trace))
    return MultiplicityResult(INTERVAL, None, lower, upper, tuple(trace))


def multiplicity_upper_bound(d: SpecialDatum) -> int:
    """Least available upper bound for the multiplicity: the envelope's upper end."""
    return _product(member_forest(d).root_nodes)[1]


def multiplicity_lower_bound(d: SpecialDatum) -> int:
    """Greatest available lower bound for the multiplicity: the envelope's lower end.

    An integer: min(r, reduced lct) times the children's lower ends,
    ceiled, at every node.
    """
    return _product(member_forest(d).root_nodes)[0]


def result_payload(result: MultiplicityResult) -> dict:
    """The JSON form of a structural result, as the CLI and the reports print it."""
    return {
        "status": result.status,
        "value": result.value,
        "lower": exact_decimal(result.lower),
        "upper": exact_decimal(result.upper),
        "trace": [
            {"rule": s.rule, "member": list(s.member) if s.member else None} for s in result.trace
        ],
    }


class HilbertSamuelTable(Record):
    """Colengths of the powers of the maximal ideal, with difference analysis.

    values[k-1] is the colength of the k-th power for k = 1..k_max.  The
    table is `stabilized` when the last `STABLE_RUN` (three) n-th finite
    differences agree; `e` is then that common value.  `points` is the
    number of entries of the knapsack table, |D| (see `_tabulate`): the
    last pass of `_longest` counts its new points but stores none of them.
    `aborted` means a table would exceed the point ceiling: then values is
    empty, e is None and points is point_ceiling + 1 for any ceiling >= 0.
    """

    __slots__ = ("n", "values", "stabilized", "e", "points", "aborted")


def hilbert_samuel_table(d: SpecialDatum, budget: OracleBudget = OracleBudget()) -> HilbertSamuelTable:
    """Tabulate colengths directly on the semigroup of the ring.

    A monomial of the ring lies in the k-th power of the maximal ideal
    exactly when its exponent vector is a sum of at least k generator
    vectors, so the colength of the k-th power counts semigroup points whose
    longest decomposition into generators has fewer than k parts.  The
    longest-decomposition length is an unbounded knapsack over the
    generators, taken in the order of `monomial_ideal(d).generators`.  Only
    semigroup points are generated, and only within caps that every point
    with fewer than k_max parts meets; a certificate that `_tabulate`
    checks at run time tightens one of them.  A datum without members has
    no generators and raises `ValueError`.

    The table depends only on the isomorphism class and the budget, so it is
    cached (least recently used, `_TABLE_CACHE_SIZE` entries) under the key
    (canonical form, budget).  Relabelings of one valid datum share an
    entry.  A datum that fails validation has no trustworthy canonical form
    and is keyed by its own labels instead.  See `_tabulate` for the
    certificate and `_longest` for the packed encoding of the points.
    """
    key = canonical_form(d)[0] if validate(d).ok else d
    return _tabulate(key, budget)


_TABLE_CACHE_SIZE = 1024

# The point ceiling counts entries of up to this many bits; a wider entry
# counts once per started _ENTRY_BITS, so the ceiling bounds bytes too.
_ENTRY_BITS = 256


def _entry_limit(ceiling: int, bits: int) -> int:
    """How many entries of `bits` packed bits the point ceiling admits."""
    return ceiling // max(1, -(-bits // _ENTRY_BITS))


def _pack(v: tuple[int, ...], width: int) -> int:
    """One integer with coordinate i in bits [i*width, (i+1)*width)."""
    packed = 0
    for i, x in enumerate(v):
        packed |= x << (i * width)
    return packed


def _pure_powers(gens) -> list[int] | None:
    """a_i, the least a with a generator a*e_i, per coordinate; None if one lacks it."""
    a = [0] * len(gens[0])
    for g in gens:
        if len(g) - g.count(0) == 1:
            i = next(i for i, x in enumerate(g) if x)
            if not a[i] or g[i] < a[i]:
                a[i] = g[i]
    return a if all(a) else None


def _residues(gens, a: list[int], weights: list[int], ceiling: int) -> dict | None:
    """R = S ∩ Π[0, a_i), if it certifies S = R + Σ a_i·N·e_i.

    R is closed from 0 under adding a generator while the sum stays in the
    box; every point of S in the box is reached, as its partial sums stay
    below it.  A point is keyed by its packed coordinates, `rw` bits each
    (one more than the largest a_i needs), and maps to its phi, the
    functional of `weights`.  With guard offsets
    C_i = 2^(rw-1) - a_i, a field s_i < 2*a_i holds s_i >= a_i exactly when
    s_i + C_i sets its top bit, so both the box test and the reduction mod
    a are a few integer operations.

    An empty dict is returned as soon as R holds more points than the
    ceiling admits at n·rw bits a point (R holds 0, so empty means abort).
    Otherwise R is returned when (r + g) mod a lies in R for every r in R
    and every generator g, and None when not, which leaves `_tabulate`'s
    cap as it is.  That certificate gives
    S = R + Σ a_i·N·e_i with disjoint translates: by induction on the
    number of generators, s + g = ((r + g) mod a) + a∘(k + (r + g) div a)
    for s = r + a∘k.
    """
    rw = max(a).bit_length() + 1
    guard = 1 << (rw - 1)
    offsets = _pack([guard - x for x in a], rw)
    guards = _pack([guard] * len(a), rw)
    moduli = _pack(a, rw)
    field = (1 << rw) - 1
    limit = _entry_limit(ceiling, len(a) * rw)

    steps = [
        (_pack(g, rw), sum(x * w for x, w in zip(g, weights)))
        for g in gens
        if all(x < m for x, m in zip(g, a))
    ]
    residues = {0: 0}
    todo = [0]
    while todo and len(residues) <= limit:
        r = todo.pop()
        fr = residues[r]
        for g, fg in steps:
            s = r + g
            if (s + offsets) & guards or s in residues:
                continue
            residues[s] = fr + fg
            todo.append(s)
    if len(residues) > limit:
        return {}

    shifts = {_pack([x % m for x, m in zip(g, a)], rw) for g in gens}
    for r in residues:
        for h in shifts:
            s = r + h
            s -= moduli & (((s + offsets) & guards) >> (rw - 1)) * field
            if s not in residues:
                return None
    return residues


def _longest(
    n: int, gens, weights, top: int, cap: int, ceiling: int, k_max: int
) -> tuple[list[int], int] | None:
    """(histogram of longest lengths, |D|) on D = S ∩ {deg <= top} ∩ {phi <= cap}, or None.

    phi is the functional of `weights`.  A point is one int: a field of
    w = top.bit_length() bits per coordinate, then its degree, then phi on
    top.  No field exceeds w bits within D, so adding a generator (packed
    the same way) is one integer add that never carries between fields, and
    sorting points sorts them by phi.  D is closed under subtracting a
    generator (deg and phi are positive on each), so the knapsack below is
    exact on it.

    With l_j(q) the longest decomposition of q into the first j generators
    (none if q is not their sum), l_j(q) = max(l_{j-1}(q), l_j(q - g_j) + 1).
    One dict is both the point set and the DP table, updated in place.
    Pass j walks g_j-rays upward while they stay in D (two floor divisions
    and a compare give a walk's length), keeping the running maximum.  A
    walk begins only at a ray start: a stored point p with p - g_j not
    stored, taken in phi order.  It passes the stored points of its
    segment, rewriting a length only when it grows, then stores the new
    points beyond; a stored point right after a new one is the next start,
    so the walk hands it max(v, old) and stops.  Every point is thus
    touched once per pass.  The lookup of p - g_j never hits by a borrow:
    if r + g_j = p as integers, with C carries out of coordinate fields and
    c out of the degree field, p's degree field exceeds the sum of its
    coordinate fields by (2^w - 1)·C + 2·(carry out of the last
    coordinate) - 2^w·c.  On a stored p that is 0, so C = c = 0, or w = 1
    and c = 1, where p's degree field is 0 and p is the origin, not
    r + g_j.

    The last pass stores none of its new points.  It touches each point of
    D once, with its final length l, and counts it straight into the
    histogram: bin l for l < k_max, the last bin for the rest.  The bins
    are min(k_max, limit) + 1, filled before the table is known to finish.
    That is enough: a point of length l ends a chain of l + 1 distinct
    points of D, so in a finished table l < |D| <= limit.  More points
    than the ceiling admits at pshift + cap.bit_length() bits a point
    returns None: a countdown of the free entries, taken at every new
    point, stored or counted, stops the walk at the first point past the
    limit, and what it leaves gives |D|.
    """
    w = top.bit_length()
    dshift = n * w
    pshift = dshift + w
    dmask = (1 << w) - 1
    limit = _entry_limit(ceiling, pshift + cap.bit_length())
    packed = []
    for g in gens:
        dg, fg = sum(g), sum(x * y for x, y in zip(g, weights))
        if dg <= top and fg <= cap:
            packed.append((dg, fg, fg << pshift | dg << dshift | _pack(g, w)))

    free = limit - 1  # entries the limit still admits
    if free < 0:
        return None
    last = min(k_max, limit)  # the overflow bin
    histogram = [0] * (last + 1)
    if not packed:
        histogram[0] = 1
        return histogram, 1
    longest = {0: 0}
    get = longest.get
    for dg, fg, g in packed[:-1]:
        for p in sorted([q for q in longest if q - g not in longest]):
            v = longest[p]
            steps = (top - (p >> dshift & dmask)) // dg
            by_phi = (cap - (p >> pshift)) // fg
            if by_phi < steps:
                steps = by_phi
            new = False
            for _ in range(steps):
                p += g
                v += 1
                old = get(p)
                if old is None:
                    longest[p] = v
                    free -= 1
                    if free < 0:
                        return None
                    new = True
                elif new:
                    if old < v:
                        longest[p] = v
                    break
                elif old < v:
                    longest[p] = v
                else:
                    v = old

    # The last pass: the same walk, counting every point and storing no new
    # one.  A loop of its own keeps flag tests off the storing passes' steps.
    dg, fg, g = packed[-1]
    for p in sorted([q for q in longest if q - g not in longest]):
        v = longest[p]
        histogram[v if v < last else last] += 1
        steps = (top - (p >> dshift & dmask)) // dg
        by_phi = (cap - (p >> pshift)) // fg
        if by_phi < steps:
            steps = by_phi
        new = False
        for _ in range(steps):
            p += g
            v += 1
            old = get(p)
            if old is None:
                free -= 1
                if free < 0:
                    return None
                new = True
            elif new:
                if old < v:
                    longest[p] = v
                break
            elif old > v:
                v = old
            histogram[v if v < last else last] += 1
    return histogram, limit - free


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _tabulate(d: SpecialDatum, budget: OracleBudget) -> HilbertSamuelTable:
    """The colength table of `d`: a knapsack on the points that can count.

    The histogram counts the points of length l < k_max.  Such a point is a
    sum of at most m = max(k_max - 1, 0) generators, so it lies in
    D = S ∩ {deg <= m·maxdeg} ∩ {phi <= c} with c = m·max phi(g), for any
    functional phi positive on every generator.  phi(q) = Σ q_i·L/a_i when
    every coordinate has a pure power among the generators (a_i the least,
    L = lcm(a)), and phi = deg otherwise.  When `_residues` certifies
    S = R + Σ a_i·N·e_i, c becomes min(c, m·L + max phi(r) over r in R):
    on q = r + a∘k, l(q) >= |k|, so phi(q) = phi(r) + L·|k| <= m·L +
    phi(r).  Valid data pass the certificate (their rings are normal
    semigroup rings), but it is checked, not assumed; R is dropped once c is
    known, so at most one of R and D is held at a time.

    D is closed under subtracting a generator, so `_longest` is exact on it,
    walks only D, and returns the histogram of lengths (the last bin holds
    l >= k_max) and |D|, which is `points`.  `point_ceiling` bounds every
    table built (R, then D): one that would hold more entries than the
    ceiling admits at its entry width (see `_entry_limit`) aborts with
    points = ceiling + 1.
    """
    n, k_max, ceiling = d.n, budget.k_max, budget.point_ceiling
    gens = monomial_ideal(d).generators
    if not gens:
        raise ValueError("the datum has no generators (no members)")
    m = max(k_max - 1, 0)
    a = _pure_powers(gens)
    lcm = 1 if a is None else math.lcm(*a)
    weights = [1] * n if a is None else [lcm // x for x in a]
    cap = m * max(sum(x * w for x, w in zip(g, weights)) for g in gens)
    residues = None if a is None else _residues(gens, a, weights, ceiling)
    counted = None
    if residues != {}:
        if residues:
            cap = min(cap, m * lcm + max(residues.values()))
        del residues
        counted = _longest(n, gens, weights, m * max(sum(g) for g in gens), cap, ceiling, k_max)
    if counted is None:
        return HilbertSamuelTable(n, (), False, None, ceiling + 1, True)

    # A finished table holds at least k_max points (multiples of one
    # generator), so its histogram has k_max bins and the overflow bin.
    histogram, points = counted
    values = []
    total = 0
    for k in range(k_max):
        total += histogram[k]
        values.append(total)

    diffs = values
    for _ in range(n):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    run = diffs[-STABLE_RUN:]
    stabilized = len(run) == STABLE_RUN and len(set(run)) == 1
    e = diffs[-1] if stabilized else None
    return HilbertSamuelTable(n, tuple(values), stabilized, e, points, False)


def table_payload(table: HilbertSamuelTable) -> dict:
    """The JSON form of an oracle table, as the CLI and the reports print it."""
    return {
        "stabilized": table.stabilized,
        "e": table.e,
        "values": list(table.values),
        "points": table.points,
        "aborted": table.aborted,
    }
