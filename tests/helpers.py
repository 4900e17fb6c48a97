"""Independent brute-force oracles and fixture builders for the tests.

Nothing here imports the solver code under test beyond plain data types,
the label-level operations `restrict` and `reduce`, Newton-polyhedron
membership for the two closure-power references, `lp.solve_min` for the
packing LP on the generators as given, the oracle's point packing
(`_pack`, `_entry_limit`) for its previous kernel, `format_fraction` for
the grid witnesses, `intern_class` and `class_datum` to turn the reference
enumeration's tuple trees into data, and `ClassMemo` with the class-node
tables for the seven-candidate envelope:
the point is to recompute expected values by a different route (exact
linear-system enumeration, a simplex on a `Fraction` tableau,
breadth-first group closure on integer numerators, exhaustive labeled
generation, the tuple-tree enumeration order, colength tabulation on
coordinate tuples, the oracle's table size by its rule on tuples, the
oracle's previous packed kernel, the structural
recursions on relabeled sub-data, the cubic containment tests of the
axioms, one membership LP per vertex of Newt(m^q) and a membership sweep
over a whole degree slice where the package reads member degrees, the
inequality grids on `Fraction` powers) and freeze or compare.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from aqci import (
    HilbertSamuelTable,
    MultiplicityResult,
    OracleBudget,
    TraceStep,
    ValidationReport,
    Violation,
    format_fraction,
    make_datum,
    newton_contains,
    reduce,
    restrict,
)
from aqci import datum as _datum
from aqci import lp
from aqci.lp import OPTIMAL, UNBOUNDED, LpSolution
from aqci.multiplicity import _entry_limit, _pack

# The status `reference_solve_min` gives an LP without a feasible point; the
# package's solver starts from a feasible basis and has no such status.
INFEASIBLE = "infeasible"


def star(n: int, a: int):
    """One maximal member over n singleton leaves of weight a."""
    return make_datum(n, [(tuple(range(1, n + 1)), 1)] + [((i,), a) for i in range(1, n + 1)])


def two_stars(a: int, b: int):
    """Disjoint union of two 2-element stars with singleton weights a and b."""
    return make_datum(
        4, [((1, 2), 1), ((3, 4), 1), ((1,), a), ((2,), a), ((3,), b), ((4,), b)]
    )


def chain(*ratios: int):
    """A maximal chain: each level splits off one singleton, ratios top-down."""
    n = len(ratios) + 1
    members = []
    weight = 1
    for depth, r in enumerate(ratios):
        members.append((tuple(range(1, n - depth + 1)), weight))
        weight *= r
        members.append(((n - depth,), weight))
    members.append(((1,), weight))
    return make_datum(n, members)


def loose_points(n: int):
    """n singletons of weight 1 and nothing else: affine n-space."""
    return make_datum(n, [((i,), 1) for i in range(1, n + 1)])


# The open case of the structural rules: an honest interval, pinned to 5 by
# the oracle.
INTERVAL_FIXTURE = make_datum(
    4,
    [((1, 2, 3, 4), 1), ((1,), 3), ((2, 3, 4), 3), ((2,), 6), ((3,), 6), ((4,), 6)],
)


def solve_linear(mat, rhs):
    """Solve a square rational system exactly; None if singular."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_min_max(vectors, offsets):
    """min over convex weights of max_j((weighted sum)[j] - offsets[j]).

    Enumerates candidate optima as solutions of square systems (a support of
    weights plus an equal-sized active coordinate set), keeping only feasible
    ones.  Exact, tiny, and entirely independent of the simplex code.
    """
    m = len(vectors)
    n = len(vectors[0])
    offsets = [Fraction(x) for x in offsets]
    best = None
    for size in range(1, m + 1):
        for support in combinations(range(m), size):
            for active in combinations(range(n), size):
                mat = [
                    [Fraction(vectors[i][j]) for i in support] + [Fraction(-1)] for j in active
                ]
                rhs = [offsets[j] for j in active]
                mat.append([Fraction(1)] * size + [Fraction(0)])
                rhs.append(Fraction(1))
                sol = solve_linear(mat, rhs)
                if sol is None:
                    continue
                lam, t = sol[:size], sol[size]
                if any(x < 0 for x in lam):
                    continue
                feasible = True
                for j in range(n):
                    val = sum(l * vectors[i][j] for l, i in zip(lam, support)) - offsets[j]
                    if val > t:
                        feasible = False
                        break
                if feasible and (best is None or t < best):
                    best = t
    return best


def brute_lp_min(c, A, b):
    """Optimal value of min c.x, A x = b, x >= 0 by basic-solution enumeration.

    Requires A to have full row rank (a slack per row gives it); returns
    None when no feasible basic solution exists.  Unboundedness is not
    detected, so compare only against solver runs that report an optimum.
    """
    m = len(A)
    best = None
    for cols in combinations(range(len(c)), m):
        sol = solve_linear([[A[i][j] for j in cols] for i in range(m)], b)
        if sol is None or any(x < 0 for x in sol):
            continue
        val = sum(Fraction(c[j]) * x for j, x in zip(cols, sol))
        if best is None or val < best:
            best = val
    return best


def _reference_pivot(tab, basis, obj, i, j):
    piv = tab[i][j]
    tab[i] = [v / piv for v in tab[i]]
    row = tab[i]
    for k in range(len(tab)):
        if k != i and tab[k][j] != 0:
            f = tab[k][j]
            tab[k] = [a - f * b for a, b in zip(tab[k], row)]
    if obj is not None and obj[j] != 0:
        f = obj[j]
        for c in range(len(obj)):
            obj[c] -= f * row[c]
    basis[i] = j


def _reference_iterate(tab, basis, obj, ncols):
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        best = None
        for i in range(len(tab)):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            return UNBOUNDED
        _reference_pivot(tab, basis, obj, best[2], enter)


def reference_solve_min(c, A, b) -> LpSolution:
    """min c.x, A x = b, x >= 0 by a two-phase simplex on a `Fraction` tableau.

    A general LP: rows with a negative right-hand side are flipped, row i
    starts from the first real column whose entry times the row's
    denominator lcm is 1 and which is 0 in every other row, and the other
    rows get artificials, numbered in row order, which phase 1 drives out
    (or drops their rows as redundant); an LP without a feasible point is
    INFEASIBLE.  The pivot rule is Bland's entering column and the least
    ratio with ties to the lower basis index.  On the LPs `aqci.lp.solve_min`
    accepts (every row has such a column, right-hand sides >= 0) phase 1
    has nothing to do, so both take the same start and pivots and must
    return equal solutions field for field.  `multiplier_membership` needs
    the general case.
    """
    m, n = len(A), len(c)
    cost = [Fraction(x) for x in c]
    rows = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(b[i])]
        rows.append([-x for x in row] if row[-1] < 0 else row)
    basis = [None] * m
    for j in range(n):
        hits = [i for i in range(m) if rows[i][j] != 0]
        if len(hits) == 1 and basis[hits[0]] is None:
            i = hits[0]
            if rows[i][j] * math.lcm(*(x.denominator for x in rows[i])) == 1:
                basis[i] = j
                rows[i] = [x / rows[i][j] for x in rows[i]]
    short = [i for i in range(m) if basis[i] is None]
    k = len(short)
    for a, i in enumerate(short):
        basis[i] = n + a
    tab = [
        row[:n] + [Fraction(int(bv == n + a)) for a in range(k)] + row[-1:]
        for row, bv in zip(rows, basis)
    ]
    obj = [Fraction(0)] * n + [Fraction(1)] * k + [Fraction(0)]
    for i in range(m):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            for cidx in range(len(obj)):
                obj[cidx] -= f * tab[i][cidx]
    _reference_iterate(tab, basis, obj, n + k)
    if -obj[-1] != 0:
        return LpSolution(INFEASIBLE, None, None)

    drop = []
    for i in range(m):
        if basis[i] >= n:
            piv = next((j for j in range(n) if tab[i][j] != 0), None)
            if piv is None:
                drop.append(i)
            else:
                _reference_pivot(tab, basis, None, i, piv)
    for i in sorted(drop, reverse=True):
        del tab[i]
        del basis[i]

    for i in range(len(tab)):
        tab[i] = tab[i][:n] + [tab[i][-1]]
    obj = cost + [Fraction(0)]
    for i in range(len(tab)):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            for cidx in range(n + 1):
                obj[cidx] -= f * tab[i][cidx]
    status = _reference_iterate(tab, basis, obj, n)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    return LpSolution(OPTIMAL, -obj[-1], tuple(x))


def subgroup_order(gens, n: int) -> int:
    """Order of the subgroup of (Q/Z)^n generated by triples (i, r, w)."""
    return len(subgroup_closure(gens, n)[1])


def subgroup_closure(gens, n: int) -> tuple[int, set[tuple[int, ...]]]:
    """(M, elements) of the subgroup of (Q/Z)^n generated by triples (i, r, w).

    A triple stands for (e_i - e_r)/w.  Breadth-first closure on integer
    numerators mod M, over one common denominator M: the lcm of the w's.
    """
    m = math.lcm(*(w for _, _, w in gens))
    steps = []
    for i, r, w in gens:
        g = [0] * n
        g[i - 1], g[r - 1] = m // w, -(m // w)
        steps.append(g)
    return m, closure_mod(steps, m, n)


def closure_mod(steps, m: int, n: int) -> set[tuple[int, ...]]:
    """The subgroup of (Z/m)^n generated by integer vectors `steps`, breadth first."""
    steps = [tuple(a % m for a in g) for g in steps]
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for p in frontier:
            for g in steps:
                q = tuple((a + b) % m for a, b in zip(p, g))
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def reference_group_generators(d) -> list[tuple[int, int, int]]:
    """All-pairs generators (i, j, w) for (e_i - e_j)/w, children found by pairwise containment."""
    gens = []
    for jdx in range(len(d.members)):
        kids = reference_children(d, jdx)
        if len(kids) < 2:
            continue
        w = d.weight_of(kids[0])
        for k1 in kids:
            for k2 in kids:
                if k1 == k2:
                    continue
                for i in d.elements_of(k1):
                    for j in d.elements_of(k2):
                        gens.append((i, j, w))
    return gens


def compositions(total: int, parts: int):
    """All nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def vertex_closure_is_power(a, q: int) -> bool:
    """Closure of a general monomial ideal `a` equal to m^q, by the n vertices.

    Containment in the power holds iff every generator has degree >= q; the
    reverse containment holds iff Newt(a) contains Newt(m^q), that is, its n
    vertices q*e_i: one membership LP each.  On the ideal of a datum those
    vertices are its own singleton generators, so the package decides by
    degrees alone (`find_closure_power`).
    """
    if q < 1:
        raise ValueError(f"power must be >= 1, got {q}")
    if any(sum(g) < q for g in a.generators):
        return False
    return all(
        newton_contains(a, [q * (j == i) for j in range(a.n)])[0] for i in range(a.n)
    )


def reference_closure_is_power(a, q: int) -> bool:
    """Closure of `a` equal to m^q, by sweeping every degree-q exponent vector.

    Every generator must have degree >= q, and every degree-q point must lie
    in Newt(a): C(q+n-1, n-1) membership LPs where `vertex_closure_is_power`
    tests the n vertices of Newt(m^q).
    """
    if any(sum(g) < q for g in a.generators):
        return False
    return all(newton_contains(a, p)[0] for p in compositions(q, a.n))


def reference_packing_lp(a, rhs) -> LpSolution:
    """The packing LP of `lct._packing_lp` on the generators as given.

    min -sum(mu) over mu >= 0 with sum_g mu_g*g + slack = rhs: the n slack
    columns, then one column g (not g/gcd(g)) of cost -1 per generator, so
    the value is -max sum(mu) and mu_g = x[g]/d.  `lct._packing_lp`
    rescales those columns and the objective by positive numbers, which
    changes no pivot.
    """
    return lp.solve_min(a.generators, [-1] * len(a.generators), rhs)


def multiplier_membership(a, t, m) -> bool:
    """Is m + (1,..,1) in the interior of t*Newt(a)?

    A third angle on the threshold, kept as a test reference.  It maximizes
    the uniform shift eps with m + (1,..,1) - eps*(1,..,1) in t*Newt(a);
    interior membership is equivalent to a strictly positive optimum
    because the region is closed under adding the orthant.  The LP has
    convex weights (one per generator), eps = eps+ - eps-, and n slacks.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError(f"scaling factor must be positive, got {t}")
    gens, n = a.generators, a.n
    rows = [
        [t * g[j] for g in gens] + [1, -1] + [int(j == k) for k in range(n)]
        for j in range(n)
    ]
    rows.append([1] * len(gens) + [0] * (2 + n))
    cost = [0] * len(gens) + [-1, 1] + [0] * n
    sol = reference_solve_min(cost, rows, [Fraction(x) + 1 for x in m] + [1])
    if sol.status != OPTIMAL:
        raise ArithmeticError(f"shift-maximization LP failed: {sol.status}")
    return -sol.value > 0


def labeled_data(n: int, max_ratio: int):
    """Every valid datum on {1..n} (labeled, not up to isomorphism).

    Enumerates laminar families of composite sets, then every assignment of
    a ratio in [2, max_ratio] to each composite member; weights follow from
    the ratios along ancestor chains.
    """
    universe = [
        frozenset(c)
        for size in range(2, n + 1)
        for c in combinations(range(1, n + 1), size)
    ]
    out = []
    for bits in product((0, 1), repeat=len(universe)):
        fam = [s for s, keep in zip(universe, bits) if keep]
        if any(
            (a & b) and not (a <= b or b <= a) for a, b in combinations(fam, 2)
        ):
            continue
        for ratios in product(range(2, max_ratio + 1), repeat=len(fam)):
            rmap = dict(zip(fam, ratios))

            def weight_of(s) -> int:
                w = 1
                for anc, r in rmap.items():
                    if s < anc:
                        w *= r
                return w

            sets = [(tuple(sorted(f)), weight_of(f)) for f in fam]
            sets += [((i,), weight_of(frozenset((i,)))) for i in range(1, n + 1)]
            out.append(make_datum(n, sets))
    return out


# The tuple-tree enumeration that the package used before it built class
# nodes directly: a tree is ("leaf",) or ("node", ratio, kids), and trees of
# one leaf count sort as these tuples compare.  `reference_enumerate` is the
# order the package's enumeration must keep.
LEAF = ("leaf",)


@lru_cache(maxsize=None)
def reference_trees(leaves: int, max_ratio: int) -> tuple:
    """All tree shapes with the given leaf count, in structural order."""
    if leaves == 1:
        return (LEAF,)
    out = []
    for kids in _reference_tree_tuples(leaves, 2, max_ratio):
        for ratio in range(2, max_ratio + 1):
            out.append(("node", ratio, kids))
    return tuple(out)


def _reference_tree_tuples(total: int, min_parts: int, max_ratio: int) -> list[tuple]:
    """Nondecreasing tuples of trees with `total` leaves and >= min_parts parts."""
    results: list[tuple] = []

    def grow(remaining: int, lowest, acc: list) -> None:
        if remaining == 0:
            if len(acc) >= min_parts:
                results.append(tuple(acc))
            return
        # Every later part takes at least one leaf.
        largest = remaining - max(0, min_parts - len(acc) - 1)
        for leaves in range(1, largest + 1):
            for tree in reference_trees(leaves, max_ratio):
                key = (leaves, tree)
                if key < lowest:
                    continue
                acc.append(tree)
                grow(remaining - leaves, key, acc)
                acc.pop()

    grow(total, (0, ()), [])
    return results


def reference_class_node(tree) -> int:
    if tree == LEAF:
        return _datum.LEAF
    _, ratio, kids = tree
    return _datum.intern_class(ratio, [reference_class_node(k) for k in kids])


def reference_enumerate(budget):
    """Yield one canonical representative per isomorphism class, smallest
    dimension first, in a deterministic order."""
    for n in range(1, budget.n_max + 1):
        for forest in _reference_tree_tuples(n, 1, budget.max_ratio):
            yield _datum.class_datum([reference_class_node(tree) for tree in forest])


def _reference_generators(d) -> list[tuple[int, ...]]:
    """The exponent vectors x_J^{w(J)} of the members, sorted, without repeats."""
    gens = set()
    for m in d.members:
        v = [0] * d.n
        for e in m.elements:
            v[e - 1] = m.weight
        gens.add(tuple(v))
    return sorted(gens)


def reference_table(d, budget=OracleBudget()):
    """The colength table of `d`, tabulated on plain coordinate tuples.

    Breadth-first closure of the semigroup under adding generators, checking
    the point ceiling after each whole layer, then the longest-decomposition
    DP over the points sorted by degree.  Slow, but it shares nothing with
    the packed-integer oracle except the output type.  An aborted table
    counts the points of the whole layer that crossed the ceiling.
    """
    n = d.n
    gens = _reference_generators(d)
    bound = budget.k_max * max(sum(g) for g in gens)
    zero = (0,) * n

    points = {zero}
    frontier = [zero]
    while frontier:
        new = set()
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if sum(q) <= bound and q not in points:
                    new.add(q)
        points |= new
        if len(points) > budget.point_ceiling:
            return HilbertSamuelTable(n, (), False, None, len(points), True)
        frontier = sorted(new)

    longest = {}
    histogram = [0] * budget.k_max
    for p in sorted(points, key=lambda q: (sum(q), q)):
        if p == zero:
            longest[p] = 0
        else:
            best = -1
            for g in gens:
                q = tuple(a - b for a, b in zip(p, g))
                if all(x >= 0 for x in q):
                    best = max(best, longest.get(q, -1))
            if best < 0:
                raise AssertionError(f"reachable point {p} lost its predecessors")
            longest[p] = best + 1
        if longest[p] < budget.k_max:
            histogram[longest[p]] += 1

    values = []
    total = 0
    for k in range(budget.k_max):
        total += histogram[k]
        values.append(total)
    diffs = values
    for _ in range(n):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    stabilized = len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]
    e = diffs[-1] if stabilized else None
    return HilbertSamuelTable(n, tuple(values), stabilized, e, len(points), False)


# The oracle's packed kernel before it walked from ray starts only and
# counted its last pass: every pass sorts and visits the whole table.
def reference_longest(n: int, gens, weights, top: int, cap: int, ceiling: int) -> dict | None:
    """Longest decompositions on D = S ∩ {deg <= top} ∩ {phi <= cap}, or None.

    phi is the functional of `weights`.  A point is one int: a field of
    w = top.bit_length() bits per coordinate, then its degree, then phi on
    top.  No field exceeds w bits within D, so adding a generator (packed
    the same way) is one integer add that never carries between fields, and
    sorting points sorts them by phi.  D is closed under subtracting a
    generator (deg and phi are positive on each), so the knapsack below is
    exact on it.

    With l_j(q) the longest decomposition of q into the first j generators
    (none if q is not their sum), l_j(q) = max(l_{j-1}(q), l_j(q - g_j) + 1).
    Pass j visits the points of the first j - 1 generators in phi order and
    walks each g_j-ray upward once, while it stays in D (two floor
    divisions and a compare give its length): a point whose predecessor
    q - g_j is a point was reached by the walk through that predecessor,
    which has lower phi, so each ray is walked from its lowest point, and
    along it the recurrence is a running maximum.  One dict is both the
    point set and the DP table, updated in place.  A value is
    2 * length + the parity of the pass that wrote it: every point is
    either the lowest of its ray or on a walk, so each pass rewrites every
    value, and a point that already holds this pass's parity was walked and
    is skipped.  More points than the ceiling admits at
    pshift + cap.bit_length() bits a point returns None: a countdown of the
    free entries, taken only when a point is stored, stops the walk at the
    first point past the limit.
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

    longest = {0: 0}
    get = longest.get
    free = limit - 1  # entries the limit still admits
    if free < 0:
        return None
    for j, (dg, fg, g) in enumerate(packed, 1):
        parity = j & 1
        for p in sorted(longest):
            v = longest[p]
            if v & 1 == parity:
                continue
            v ^= 1
            longest[p] = v
            steps = (top - (p >> dshift & dmask)) // dg
            by_phi = (cap - (p >> pshift)) // fg
            if by_phi < steps:
                steps = by_phi
            for _ in range(steps):
                p += g
                v += 2
                old = get(p)
                if old is None:
                    longest[p] = v
                    free -= 1
                    if free < 0:
                        return None
                else:
                    old ^= 1
                    if old > v:
                        v = old
                    longest[p] = v
    return longest


def reference_points(d, budget=OracleBudget()) -> int:
    """|D|, the size of the oracle's knapsack table, from its rule on tuples.

    With m = max(k_max - 1, 0), D = S ∩ {deg <= m·maxdeg} ∩ {phi <= cap}.
    phi(q) = Σ q_i·L/a_i when every coordinate i has a pure power among the
    generators (a_i the least, L = lcm(a)), and deg otherwise.
    cap = m·max phi(g), lowered to m·L + max phi(R) when the box points
    R = S ∩ Π[0, a_i), closed here on tuples, contain (r + g) mod a for
    every r in R and generator g.  D is counted by `reference_longest`.
    """
    n = d.n
    gens = _reference_generators(d)
    m = max(budget.k_max - 1, 0)
    pure = [[g[i] for g in gens if g[i] == sum(g) > 0] for i in range(n)]
    a = [min(p) for p in pure] if all(pure) else None
    lcm = math.lcm(*a) if a else 1
    weights = [lcm // x for x in a] if a else [1] * n

    def phi(q):
        return sum(x * w for x, w in zip(q, weights))

    cap = m * max(phi(g) for g in gens)
    if a:
        box = {(0,) * n}
        todo = list(box)
        while todo:
            r = todo.pop()
            for g in gens:
                q = tuple(x + y for x, y in zip(r, g))
                if all(x < y for x, y in zip(q, a)) and q not in box:
                    box.add(q)
                    todo.append(q)
        if all(tuple((x + y) % z for x, y, z in zip(r, g, a)) in box for r in box for g in gens):
            cap = min(cap, m * lcm + max(map(phi, box)))
    top = m * max(sum(g) for g in gens)
    return len(reference_longest(n, gens, weights, top, cap, 10**9))


def without_points(table):
    """`table` with `points` blanked.

    The reference stores every point up to the degree bound, the oracle only
    its knapsack table, so the two tables agree on every field but `points`
    (see `reference_points` for the oracle's).
    """
    return replaced(table, points=None)


def replaced(record, **changes):
    """A copy of the frozen record with the given fields changed."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


# ---------------------------------------------------------------------------
# Label-level references for the structural layer: every recursion step
# builds the restricted or reduced datum and finds children by pairwise
# containment, as the package did before it recursed on class nodes.


def reference_children(d, j: int) -> list[int]:
    outer = frozenset(d.elements_of(j))
    inner = [k for k in range(len(d.members)) if frozenset(d.elements_of(k)) < outer]
    tops = [
        k
        for k in inner
        if not any(
            frozenset(d.elements_of(k)) < frozenset(d.elements_of(m)) for m in inner if m != k
        )
    ]
    return sorted(tops, key=lambda k: d.elements_of(k)[0])


def reference_maximal_elements(d) -> list[int]:
    sets = [frozenset(m.elements) for m in d.members]
    return [a for a in range(len(sets)) if not any(b != a and sets[a] < sets[b] for b in range(len(sets)))]


def _top_ratio(d, top: int) -> int:
    return d.weight_of(reference_children(d, top)[0])


def reference_lct_datum(d) -> Fraction:
    maxes = reference_maximal_elements(d)
    if len(maxes) > 1:
        return sum((reference_lct_datum(restrict(d, j)) for j in maxes), Fraction(0))
    if d.n == 1:
        return Fraction(1)
    top = maxes[0]
    return max(Fraction(1), reference_lct_datum(reduce(d, top)) / _top_ratio(d, top))


def reference_group_order(d) -> int:
    maxes = reference_maximal_elements(d)
    if len(maxes) > 1:
        return math.prod(reference_group_order(restrict(d, j)) for j in maxes)
    if d.n == 1:
        return 1
    top = maxes[0]
    return _top_ratio(d, top) ** (d.n - 1) * reference_group_order(reduce(d, top))


def reference_branching_product(d) -> int:
    return math.prod(
        len(reference_children(d, j)) for j in range(len(d.members)) if len(d.elements_of(j)) >= 2
    )


def reference_top_child_weight(d) -> Fraction:
    """The weight of the top member's children in a connected datum; 1 if n = 1."""
    if d.n == 1:
        return Fraction(1)
    return Fraction(_top_ratio(d, reference_maximal_elements(d)[0]))


def reference_floor_factor(d) -> Fraction:
    """The floor factor of a connected datum."""
    if d.n == 1:
        return Fraction(1)
    top = reference_maximal_elements(d)[0]
    return min(reference_lct_datum(reduce(d, top)), reference_top_child_weight(d))


def reference_floor_factor_product(d) -> Fraction:
    return math.prod(
        (reference_floor_factor(restrict(d, j)) for j in range(len(d.members))), start=Fraction(1)
    )


def _reference_interval(lower, upper, trace) -> MultiplicityResult:
    if lower == upper:
        v = Fraction(int(lower))
        return MultiplicityResult("exact", int(lower), v, v, tuple(trace) + (TraceStep("interval-pinned"),))
    return MultiplicityResult("interval", None, lower, upper, tuple(trace))


def _reference_exact(value: int, trace) -> MultiplicityResult:
    return MultiplicityResult("exact", value, Fraction(value), Fraction(value), tuple(trace))


def reference_multiplicity(d) -> MultiplicityResult:
    maxes = reference_maximal_elements(d)
    if d.n == 1:
        return _reference_exact(1, (TraceStep("dimension-one"),))
    if len(maxes) > 1:
        parts = [reference_multiplicity(restrict(d, j)) for j in maxes]
        trace = (TraceStep("component-product"),)
        for p in parts:
            trace += p.trace
        if all(p.is_exact for p in parts):
            return _reference_exact(math.prod(p.value for p in parts), trace)
        lower = math.prod((p.lower for p in parts), start=Fraction(1))
        upper = math.prod((p.upper for p in parts), start=Fraction(1))
        return _reference_interval(lower, upper, trace)

    top = maxes[0]
    top_elems = d.elements_of(top)
    kids = reference_children(d, top)
    r = d.weight_of(kids[0])
    red = reduce(d, top)
    reduced_lct = reference_lct_datum(red)
    sub = reference_multiplicity(red)
    if reduced_lct >= r:
        trace = (TraceStep("reduce-equality", top_elems),) + sub.trace
        if sub.is_exact:
            return _reference_exact(r * sub.value, trace)
        return _reference_interval(r * sub.lower, r * sub.upper, trace)
    if all(len(d.elements_of(k)) == 1 for k in kids):
        return _reference_exact(min(r, d.n), (TraceStep("hypersurface", top_elems),))
    lower = max(
        reference_floor_factor_product(d),
        reduced_lct * sub.lower,
        Fraction(d.n**d.n, reference_group_order(d)),
    )
    upper = min(
        Fraction(r) * sub.upper,
        Fraction(reference_branching_product(d)),
        Fraction(2 ** (d.n - 1)),
    )
    trace = (TraceStep("interval-bounds", top_elems),) + sub.trace
    return _reference_interval(Fraction(math.ceil(lower)), upper, trace)


def reference_multiplicity_upper_bound(d) -> Fraction:
    cands = [
        Fraction(reference_branching_product(d)),
        Fraction(2 ** (d.n - math.ceil(reference_lct_datum(d)))),
    ]
    maxes = reference_maximal_elements(d)
    if len(maxes) > 1:
        cands.append(
            math.prod(
                (reference_multiplicity_upper_bound(restrict(d, j)) for j in maxes),
                start=Fraction(1),
            )
        )
    elif d.n >= 2:
        top = maxes[0]
        cands.append(_top_ratio(d, top) * reference_multiplicity_upper_bound(reduce(d, top)))
    return min(cands)


def reference_multiplicity_lower_bound(d) -> Fraction:
    lct = reference_lct_datum(d)
    cands = [
        Fraction(1),
        reference_floor_factor_product(d),
        (Fraction(d.n) / lct) ** d.n / reference_group_order(d),
    ]
    maxes = reference_maximal_elements(d)
    if len(maxes) > 1:
        cands.append(
            math.prod(
                (reference_multiplicity_lower_bound(restrict(d, j)) for j in maxes),
                start=Fraction(1),
            )
        )
    elif d.n >= 2:
        top = maxes[0]
        r = _top_ratio(d, top)
        red = reduce(d, top)
        reduced_lct = reference_lct_datum(red)
        factor = Fraction(r) if reduced_lct >= r else reduced_lct
        cands.append(factor * reference_multiplicity_lower_bound(red))
    return max(cands)


def _seven_candidates(x: int) -> tuple:
    """(n, lct, |G|, floor product, branching, lower, upper) of the tree x.

    Every invariant is recomputed here from the children's tuples, and both
    ends take every candidate: ceil max(1, floor product, (n/lct)^n/|G|,
    min(r, reduced lct) * children's lower) and min(branching,
    2^(n - ceil lct), r * children's upper).
    """
    if x == _datum.LEAF:
        return 1, Fraction(1), 1, Fraction(1), 1, 1, 1
    r, kids = _datum.NODE_RATIO[x], [SEVEN_CANDIDATE_ENVELOPE[k] for k in _datum.NODE_KIDS[x]]
    n = sum(k[0] for k in kids)
    reduced = sum(k[1] for k in kids)
    lct = max(Fraction(1), reduced / r)
    group = r ** (n - 1) * math.prod(k[2] for k in kids)
    floor = min(r, reduced) * math.prod(k[3] for k in kids)
    branching = len(kids) * math.prod(k[4] for k in kids)
    lower = max(
        1,
        floor,
        (Fraction(n) / lct) ** n / group,
        min(r, reduced) * math.prod(k[5] for k in kids),
    )
    upper = min(branching, 2 ** (n - math.ceil(lct)), r * math.prod(k[6] for k in kids))
    return n, lct, group, floor, branching, math.ceil(lower), upper


# The envelope with all seven candidates, per class node, filled children
# first by `ClassMemo`'s loop (no recursion): the reference for the two-rule
# `multiplicity._envelope`.
SEVEN_CANDIDATE_ENVELOPE = _datum.ClassMemo(_seven_candidates)


def reference_validate(d) -> ValidationReport:
    """Every axiom violation, by cubic pairwise containment tests."""
    out: list[Violation] = []
    if d.n < 1:
        out.append(Violation(_datum.BAD_DIMENSION, f"ground set size must be >= 1, got {d.n}"))
    if not d.members:
        out.append(Violation(_datum.NO_MEMBERS, "family has no members"))

    for m in d.members:
        if not m.elements:
            out.append(Violation(_datum.EMPTY_MEMBER, "empty member set", (m.elements,)))
        elif d.n >= 1 and (m.elements[0] < 1 or m.elements[-1] > d.n):
            out.append(
                Violation(
                    _datum.ELEMENT_RANGE,
                    f"member {list(m.elements)} leaves the ground set {{1..{d.n}}}",
                    (m.elements,),
                )
            )
        if m.weight < 1:
            out.append(
                Violation(
                    _datum.NONPOSITIVE_WEIGHT,
                    f"member {list(m.elements)} has nonpositive weight {m.weight}",
                    (m.elements,),
                )
            )

    seen: dict[tuple[int, ...], int] = {}
    for m in d.members:
        seen[m.elements] = seen.get(m.elements, 0) + 1
    for elems, count in seen.items():
        if count > 1:
            out.append(
                Violation(
                    _datum.DUPLICATE_MEMBER, f"member {list(elems)} appears {count} times", (elems,)
                )
            )

    # Missing singletons, one violation per maximal run of missing labels.
    singletons = {m.elements[0] for m in d.members if len(m.elements) == 1}
    runs: list[list[int]] = []
    for i in range(1, d.n + 1):
        if i not in singletons:
            if runs and runs[-1][-1] == i - 1:
                runs[-1].append(i)
            else:
                runs.append([i])
    for run in runs:
        if len(run) == 1:
            message, ends = f"singleton {{{run[0]}}} is missing", ((run[0],),)
        else:
            message = f"singletons {{{run[0]}}} to {{{run[-1]}}} are missing"
            ends = ((run[0],), (run[-1],))
        out.append(Violation(_datum.MISSING_SINGLETON, message, ends))

    sets = [frozenset(m.elements) for m in d.members]
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            sa, sb = sets[a], sets[b]
            if sa & sb and not (sa <= sb or sb <= sa):
                out.append(
                    Violation(
                        _datum.NOT_LAMINAR,
                        f"members {sorted(sa)} and {sorted(sb)} overlap without nesting",
                        (d.members[a].elements, d.members[b].elements),
                    )
                )

    for a in range(len(sets)):
        if any(b != a and sets[a] < sets[b] for b in range(len(sets))):
            continue
        if d.members[a].weight != 1:
            out.append(
                Violation(
                    _datum.MAXIMAL_WEIGHT,
                    f"maximal member {list(d.members[a].elements)} has weight "
                    f"{d.members[a].weight}, expected 1",
                    (d.members[a].elements,),
                )
            )

    for a in range(len(sets)):
        for b in range(len(sets)):
            if a == b or not (sets[a] < sets[b]):
                continue
            wi, wo = d.members[a].weight, d.members[b].weight
            pair = (d.members[a].elements, d.members[b].elements)
            if wi <= wo:
                out.append(
                    Violation(
                        _datum.WEIGHT_ORDER,
                        f"inner member {sorted(sets[a])} (weight {wi}) must outweigh "
                        f"outer member {sorted(sets[b])} (weight {wo})",
                        pair,
                    )
                )
            if wo > 0 and wi % wo != 0:
                out.append(
                    Violation(
                        _datum.WEIGHT_DIVISIBILITY,
                        f"weight {wo} of {sorted(sets[b])} does not divide weight "
                        f"{wi} of {sorted(sets[a])}",
                        pair,
                    )
                )

    for b in range(len(sets)):
        kids = [
            a
            for a in range(len(sets))
            if sets[a] < sets[b]
            and not any(sets[a] < sets[c] < sets[b] for c in range(len(sets)))
        ]
        weights = {d.members[a].weight for a in kids}
        if len(weights) > 1:
            out.append(
                Violation(
                    _datum.SIBLING_WEIGHTS,
                    f"children of {sorted(sets[b])} carry different weights {sorted(weights)}",
                    tuple(d.members[a].elements for a in kids),
                )
            )

    return ValidationReport(tuple(out))


def reference_ceiling_power_grid() -> dict:
    """Exhaustive exact check of a <= 2^(ceil(b) - ceil(b/a)) on a rational grid.

    a runs over the integers [2, 12]; b runs over [a, 20] in steps of 1/4.
    Equality must occur exactly when a = 2 and ceil(b) - ceil(b/a) = 1.
    """
    failures: list[dict] = []
    points = 0
    equality_points = 0
    for a in range(2, 13):
        b = Fraction(a)
        while b <= 20:
            k = math.ceil(b) - math.ceil(b / a)
            bound = 2**k
            holds = a <= bound
            is_equal = a == bound
            should_be_equal = a == 2 and k == 1
            if not holds or is_equal != should_be_equal:
                failures.append({"a": a, "b": format_fraction(b), "exponent": k})
            points += 1
            equality_points += int(is_equal)
            b += Fraction(1, 4)
    return {"points": points, "equality_points": equality_points, "failures": failures}


def _weighted_power_ge(xs, cs) -> tuple[bool, bool]:
    """Compare prod((x_i/c_i)^(x_i)) with ((sum x)/(sum c))^(sum x), exactly.

    Raising both positive sides to the lcm of the exponent denominators turns
    the comparison into one between rationals with integer exponents.
    """
    s = math.lcm(*[x.denominator for x in xs])
    lhs = math.prod(((x / c) ** int(x * s) for x, c in zip(xs, cs)), start=Fraction(1))
    total_x = sum(xs)
    total_c = sum(cs)
    rhs = (total_x / total_c) ** int(total_x * s)
    return lhs >= rhs, lhs == rhs


def reference_product_concavity_grid() -> dict:
    """Exhaustive exact check of the weighted power inequality on small grids.

    For positive rationals, prod((x_i/c_i)^(x_i)) >= ((sum x)/(sum c))^(sum x)
    with equality exactly when all the ratios x_i/c_i agree.  Checked for 2
    and 3 terms with every coordinate drawn from {1/2, 1, 3/2, 2, 3}.
    """
    grid = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
    failures: list[dict] = []
    points = 0
    equality_points = 0
    for terms in (2, 3):
        for xs in product(grid, repeat=terms):
            for cs in product(grid, repeat=terms):
                ge, eq = _weighted_power_ge(xs, cs)
                proportional = all(x * cs[0] == xs[0] * c for x, c in zip(xs, cs))
                if not ge or eq != proportional:
                    failures.append(
                        {
                            "xs": [format_fraction(x) for x in xs],
                            "cs": [format_fraction(c) for c in cs],
                        }
                    )
                points += 1
                equality_points += int(eq)
    return {"points": points, "equality_points": equality_points, "failures": failures}
