"""Independent brute-force oracles and fixture builders for the tests.

Nothing here imports the solver code under test beyond plain data types:
the point is to recompute expected values by a different route (exact
linear-system enumeration, a simplex on a `Fraction` tableau, breadth-first
group closure, exhaustive labeled generation, colength tabulation on
coordinate tuples) and freeze or compare.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from aqci import HilbertSamuelTable, OracleBudget, make_datum
from aqci.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpSolution


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


def matrix_rank(mat) -> int:
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


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

    Requires A to have full row rank (the caller filters); returns None when
    no feasible basic solution exists.  Unboundedness is not detected, so
    compare only against solver runs that report an optimum.
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

    The same pivot rule as `aqci.lp.solve_min` (Bland's entering column, the
    least ratio with ties to the lower basis index, artificials driven out
    or their rows dropped after phase 1), on normalized rational rows, so
    both must return equal solutions field for field.
    """
    m, n = len(A), len(c)
    cost = [Fraction(x) for x in c]
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tab.append(row + [Fraction(int(i == j)) for j in range(m)] + [rhs])
    basis = list(range(n, n + m))
    obj = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            for cidx in range(len(obj)):
                obj[cidx] -= f * tab[i][cidx]
    _reference_iterate(tab, basis, obj, n + m)
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
    """Order of the subgroup of (Q/Z)^n generated by the given vectors."""
    zero = tuple(Fraction(0) for _ in range(n))
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = tuple((a + b) % 1 for a, b in zip(p, g))
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return len(seen)


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


def reference_table(d, budget=OracleBudget()):
    """The colength table of `d`, tabulated on plain coordinate tuples.

    Breadth-first closure of the semigroup under adding generators, checking
    the point ceiling after each whole layer, then the longest-decomposition
    DP over the points sorted by degree.  Slow, but it shares nothing with
    the packed-integer oracle except the output type.  An aborted table
    counts the points of the whole layer that crossed the ceiling.
    """
    n = d.n
    gens = set()
    for m in d.members:
        v = [0] * n
        for e in m.elements:
            v[e - 1] = m.weight
        gens.add(tuple(v))
    gens = sorted(gens)
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
