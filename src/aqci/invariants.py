"""Numerical invariants of a datum beyond the threshold.

The singularity presented by a datum is a quotient of affine n-space by a
finite abelian group acting diagonally.  This module computes:

  * `embedding_dimension`: the number of members (one ring generator each);
  * `branching_product`: the product of the child counts of the
    non-singleton members, which bounds the multiplicity from above;
  * `group_order` via structural recursion, and `group_order_lattice` via an
    independent integer lattice-index computation from `group_generators`,
    which gives one label-level triple (i, r, w), standing for the vector
    (e_i - e_r)/w, per edge of the member forest past each member's first
    child (n - #roots in all);
  * the floor factor min(threshold of the reduced datum, top child weight)
    of every member (1 for a singleton), in `summarize` next to the child
    weight factor, and `floor_factor_product`, their product over all
    members: the exact lower-bound machinery for the multiplicity.

The structural values are `ClassMemo`s over the class nodes of
`datum.member_forest` (`class_*` below): a tree's value comes from its
ratio, its leaf count and its children's values, a forest's from its trees.

The two group-order routes are kept separate on purpose; the verification
suite compares them on every enumerated datum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .datum import (
    LEAF,
    NODE_KIDS,
    NODE_LEAVES,
    NODE_RATIO,
    ClassMemo,
    SpecialDatum,
    member_forest,
)
from .lct import lct_datum, reduced_lct

__all__ = [
    "embedding_dimension",
    "branching_product",
    "edge_count_identity",
    "group_generators",
    "group_order",
    "group_order_lattice",
    "floor_factor_product",
    "InvariantSummary",
    "summarize",
]


def embedding_dimension(d: SpecialDatum) -> int:
    return len(d.members)


class_branching = ClassMemo(
    lambda x: 1 if x == LEAF
    else len(NODE_KIDS[x]) * math.prod(class_branching[k] for k in NODE_KIDS[x])
)


def branching_product(d: SpecialDatum) -> int:
    """Product of child counts over members with at least two elements."""
    return math.prod(class_branching[x] for x in member_forest(d).root_nodes)


def edge_count_identity(d: SpecialDatum) -> tuple[int, int]:
    """(sum of (child_count - 1) over non-singleton members, n - #roots).

    The two sides agree for every valid datum (a forest has as many edges as
    non-root nodes), and the right side equals n - 1 exactly when the datum
    is connected.
    """
    f = member_forest(d)
    lhs = sum(len(kids) - 1 for m, kids in zip(d.members, f.kids) if len(m.elements) >= 2)
    return lhs, d.n - len(f.roots)


def group_generators(d: SpecialDatum) -> list[tuple[int, int, int]]:
    """Generators of the acting group, as integer triples (i, r, w).

    A triple (i, r, w) stands for the vector (e_i - e_r)/w in (Q/Z)^n.  For
    every member J whose children K_1, ..., K_c (by smallest element) have
    common weight w, the group contains (e_i - e_j)/w for i and j in
    distinct children.  One triple per forest edge past the first child,
    (min K_k, min K_1, w) for k = 2..c, spans the same subgroup on valid
    data: n - #roots triples in all (`edge_count_identity`).  By induction
    over the forest, the subgroup of J holds (e_i - e_j)/w for all i, j in
    J.  For i and j in one child K whose children have weight w' = r*w,
    (e_i - e_j)/w = r*(e_i - e_j)/w' lies in K's subgroup, as the ratio r
    is an integer (0 when K is a singleton).  For i in K_a and j in K_b,
    (e_i - e_j)/w is (e_i - e_a)/w + (e_a - e_b)/w + (e_b - e_j)/w with
    a = min K_a and b = min K_b, and (e_a - e_b)/w is the difference of the
    triples of K_a and K_b (a triple of K_1 being 0).
    """
    gens: list[tuple[int, int, int]] = []
    for kids in member_forest(d).kids:
        if len(kids) < 2:
            continue
        w = d.weight_of(kids[0])
        r, *rest = (d.elements_of(k)[0] for k in kids)
        gens.extend((i, r, w) for i in rest)
    return gens


class_group_order = ClassMemo(
    lambda x: 1 if x == LEAF
    else NODE_RATIO[x] ** (NODE_LEAVES[x] - 1)
    * math.prod(class_group_order[k] for k in NODE_KIDS[x])
)


def group_order(d: SpecialDatum) -> int:
    """Order of the acting group, by structural recursion.

    1 in dimension one; multiplicative over components; and for a connected
    datum with child weight r under the top member, r^(n-1) times the order
    for the reduced datum.
    """
    return math.prod(class_group_order[x] for x in member_forest(d).root_nodes)


def _lattice_rows(d: SpecialDatum) -> tuple[int, list[dict[int, int]]]:
    """(M, rows): M = lcm of the w's of `group_generators`, and sparse integer
    rows (column -> nonzero entry, columns 1..n) spanning M*L, where L is
    generated by Z^n and the vectors (e_i - e_r)/w: n rows M*e_i, then per
    triple (one per forest edge past a member's first child) M/w at i and
    -M/w at r.
    """
    gens = group_generators(d)
    m = math.lcm(*[w for _, _, w in gens])
    rows = [{i: m} for i in range(1, d.n + 1)]
    rows += [{i: m // w, r: -(m // w)} for i, r, w in gens]
    return m, rows


def _row_lattice_index(rows: list[dict[int, int]], n: int) -> list[int]:
    """The diagonal of a triangular basis of the lattice spanned by sparse
    integer rows over columns 1..n: one pivot per column, column 1 first.

    Unimodular row reduction, one column at a time from the last: the row
    with the least |entry| in the column reduces every other row with a
    nonzero there, until it is alone; it then leaves with that entry as the
    column's pivot, so the lattice's index in Z^n is the product of the
    pivots.  A column -> rows index keeps each step on nonzeros, and a row
    that reaches zero drops out of the index.  The rows are reduced in
    place.  The last column goes first because the r of a triple is the
    least label of its member: the columns most rows share come last, so a
    step adds entries only there (20-200 times faster than first column
    first on `chain(2,...,2)` with n = 200 and on `star(1000, 2)`).
    Raises ArithmeticError if they do not span a full-rank sublattice.
    """
    holding: dict[int, set[int]] = {c: set() for c in range(1, n + 1)}
    for k, row in enumerate(rows):
        for c in row:
            holding[c].add(k)
    pivots = [0] * n
    for col in range(n, 0, -1):
        ids = holding.pop(col)
        if not ids:
            raise ArithmeticError("row lattice is not full rank")
        while len(ids) > 1:
            pivot = rows[min(ids, key=lambda k: abs(rows[k][col]))]
            for k in list(ids):
                row = rows[k]
                if row is pivot:
                    continue
                f = row[col] // pivot[col]
                for c, v in pivot.items():
                    x = row.get(c, 0) - f * v
                    if x:
                        if c not in row:
                            holding[c].add(k)
                        row[c] = x
                    else:
                        del row[c]
                        (ids if c == col else holding[c]).discard(k)
            # Remainders are smaller than the pivot, so the loop terminates
            # by infinite descent.
        (p,) = ids
        pivots[col - 1] = abs(rows[p].pop(col))
        for c in rows[p]:
            holding[c].discard(p)
    return pivots


def group_order_lattice(d: SpecialDatum) -> int:
    """Order of the acting group as a lattice index, from explicit generators.

    The dual description: the group is L/Z^n where L is generated by Z^n and
    the vectors (e_i - e_r)/w of the triples from `group_generators`.
    Clearing denominators by M = lcm of the w's gives an integer row lattice
    M*L containing M*Z^n, and |L/Z^n| = M^n / [Z^n : M*L] = Π_c M / p_c over
    the pivots p_c of `_row_lattice_index`.  Each p_c divides M: once the
    columns after c are eliminated, the rows left span
    M*L ∩ {x_k = 0 for k > c}, which holds M*e_c, so every column-c entry
    of that lattice, M among them, is a multiple of p_c.  A pivot that does
    not divide M raises ArithmeticError.
    """
    m, rows = _lattice_rows(d)
    order = 1
    for col, p in enumerate(_row_lattice_index(rows, d.n), 1):
        q, rem = divmod(m, p)
        if rem:
            raise ArithmeticError(f"pivot {p} of column {col} does not divide M = {m}")
        order *= q
    return order


def class_top_weight(x: int) -> Fraction:
    return Fraction(1) if x == LEAF else Fraction(NODE_RATIO[x])


class_floor_factor = ClassMemo(
    lambda x: Fraction(1) if x == LEAF
    else min(reduced_lct[x], class_top_weight(x))
)
class_floor_product = ClassMemo(
    lambda x: math.prod((class_floor_product[k] for k in NODE_KIDS[x]), start=class_floor_factor[x])
)


def floor_factor_product(d: SpecialDatum) -> Fraction:
    return math.prod(
        (class_floor_product[x] for x in member_forest(d).root_nodes), start=Fraction(1)
    )


class InvariantSummary(Record):
    """The structural invariants of a datum.

    `child_counts`, `floor_factors` and `child_weight_factors` are tuples of
    (member elements, value) pairs: an int count, then `Fraction` factors.
    `lct` is a `Fraction`; the other fields are ints.
    """

    __slots__ = (
        "n", "emb", "child_counts", "branching_product", "floor_factors",
        "child_weight_factors", "group_order", "group_order_lattice", "lct", "ceil_lct",
    )


def summarize(d: SpecialDatum) -> InvariantSummary:
    f = member_forest(d)
    lct = lct_datum(d)
    return InvariantSummary(
        n=d.n,
        emb=embedding_dimension(d),
        child_counts=tuple(
            (m.elements, len(kids)) for m, kids in zip(d.members, f.kids) if len(m.elements) >= 2
        ),
        branching_product=branching_product(d),
        floor_factors=tuple(
            (m.elements, class_floor_factor[x]) for m, x in zip(d.members, f.node)
        ),
        child_weight_factors=tuple(
            (m.elements, class_top_weight(x)) for m, x in zip(d.members, f.node)
        ),
        group_order=group_order(d),
        group_order_lattice=group_order_lattice(d),
        lct=lct,
        ceil_lct=math.ceil(lct),
    )
