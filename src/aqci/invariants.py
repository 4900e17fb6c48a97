"""Numerical invariants of a datum beyond the threshold.

The singularity presented by a datum is a quotient of affine n-space by a
finite abelian group acting diagonally.  This module computes:

  * `embedding_dimension`: the number of members (one ring generator each);
  * `branching_product`: the product of the child counts of the
    non-singleton members, which bounds the multiplicity from above;
  * `group_order` via structural recursion, and `group_order_lattice` via an
    independent integer lattice-index computation from `group_generators`,
    which gives |J| - 1 label-level triples (i, r, w), each standing for
    the vector (e_i - e_r)/w, per non-singleton member J;
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
from dataclasses import dataclass
from fractions import Fraction

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
    every member J whose children have common weight w, the group contains
    (e_i - e_j)/w for i and j in distinct children.  With r = min J, the
    |J| - 1 vectors (e_i - e_r)/w, i in J - {r}, span the same subgroup:
    if i and r lie in one child, take s in another child, and then
    (e_i - e_r)/w = (e_i - e_s)/w - (e_r - e_s)/w; conversely
    (e_i - e_j)/w = (e_i - e_r)/w - (e_j - e_r)/w.
    """
    gens: list[tuple[int, int, int]] = []
    for jdx, kids in enumerate(member_forest(d).kids):
        if len(kids) < 2:
            continue
        w = d.weight_of(kids[0])
        r, *rest = d.elements_of(jdx)
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


def _row_lattice_diagonal(rows: list[list[int]], n: int) -> list[int]:
    """Pivot values of an integer row lattice after unimodular row reduction.

    The rows must span a full-rank sublattice of Z^n; the product of the
    returned pivots is the index of that sublattice.
    """
    mat = [list(r) for r in rows if any(r)]
    diag = []
    top = 0
    for col in range(n):
        while True:
            nz = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not nz:
                raise ArithmeticError("row lattice is not full rank")
            if len(nz) == 1:
                break
            best = min(nz, key=lambda i: abs(mat[i][col]))
            for i in nz:
                if i != best:
                    f = mat[i][col] // mat[best][col]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[best])]
            # Exact multiples vanish; otherwise remainders shrink, so the
            # loop terminates by infinite descent.
        i = nz[0]
        mat[top], mat[i] = mat[i], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        diag.append(mat[top][col])
        top += 1
    return diag


def _lattice_rows(d: SpecialDatum) -> tuple[int, list[list[int]]]:
    """(M, rows): M = lcm of the w's of `group_generators`, and integer rows
    spanning M*L, where L is generated by Z^n and the vectors (e_i - e_r)/w:
    n rows M*e_i, then per triple M/w at i and -M/w at r.
    """
    gens = group_generators(d)
    m = math.lcm(*[w for _, _, w in gens])
    rows = [[m * int(i == j) for j in range(d.n)] for i in range(d.n)]
    rows += [[m // w * ((j == i) - (j == r)) for j in range(1, d.n + 1)] for i, r, w in gens]
    return m, rows


def group_order_lattice(d: SpecialDatum) -> int:
    """Order of the acting group as a lattice index, from explicit generators.

    The dual description: the group is L/Z^n where L is generated by Z^n and
    the vectors (e_i - e_r)/w of the triples from `group_generators`.
    Clearing denominators by M = lcm of the w's gives an integer row lattice
    M*L containing M*Z^n, and |L/Z^n| = M^n / [Z^n : M*L].
    """
    m, rows = _lattice_rows(d)
    if m == 1:
        # No generator, or only integral ones: L = Z^n.
        return 1
    det = math.prod(_row_lattice_diagonal(rows, d.n))
    q, rem = divmod(m**d.n, det)
    if rem:
        raise ArithmeticError(
            f"lattice index {det} does not divide the cleared-denominator volume {m}^{d.n}"
        )
    return q


def class_top_weight(x: int) -> Fraction:
    return Fraction(1) if x == LEAF else Fraction(NODE_RATIO[x])


class_floor_factor = ClassMemo(
    lambda x: Fraction(1) if x == LEAF
    else min(reduced_lct(x), class_top_weight(x))
)
class_floor_product = ClassMemo(
    lambda x: math.prod((class_floor_product[k] for k in NODE_KIDS[x]), start=class_floor_factor[x])
)


def floor_factor_product(d: SpecialDatum) -> Fraction:
    return math.prod(
        (class_floor_product[x] for x in member_forest(d).root_nodes), start=Fraction(1)
    )


@dataclass(frozen=True)
class InvariantSummary:
    n: int
    emb: int
    child_counts: tuple[tuple[tuple[int, ...], int], ...]
    branching_product: int
    floor_factors: tuple[tuple[tuple[int, ...], Fraction], ...]
    child_weight_factors: tuple[tuple[tuple[int, ...], Fraction], ...]
    group_order: int
    group_order_lattice: int
    lct: Fraction
    ceil_lct: int


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
