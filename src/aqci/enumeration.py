"""Exhaustive enumeration of datum isomorphism classes.

An isomorphism class of valid data is the same thing as a multiset of rooted
trees whose leaves are the ground elements, where every internal node has at
least two children and carries an integer ratio label in [2, max_ratio] (the
factor between its weight and its children's weight; roots have weight 1).
Trees are the interned class nodes of `datum` that `signature` reads.  The
trees of one leaf count are generated child multiset by child multiset, and
each multiset over its ratios; a multiset of trees (the children of a node,
or a forest) is generated as a tuple nondecreasing by (leaves, class order).
So the output order is deterministic and duplicate-free, and
`enumerate_data` yields `class_datum` of each forest, smallest n first.

This is the order of the tuple trees ("node", ratio, kids) the package once
built (nondecreasing by leaves, then as the tuples compare), as long as no
forest or child multiset holds two trees of one leaf count that the two
orders sort differently.  The first such pairs have 8 leaves at max_ratio 2,
6 at max_ratio 3 and 5 at max_ratio 4 to 8, so the output can differ only
from n = 16, 12 or 10 on.  That is past every budget the CLI accepts under
its default class ceiling (n <= 10 at ratio 2, n <= 8 at ratio 3, n <= 6 at
ratios 4-5, n <= 5 at ratios 6-8); past it the order is (leaves, class
order).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from . import datum
from ._record import Record
from .datum import SpecialDatum, class_datum, class_order

__all__ = ["EnumerationBudget", "enumerate_data", "class_count"]


DEFAULT_MAX_RATIO = 3


class EnumerationBudget(Record):
    """Size limits for enumeration: dimension up to n_max, ratios in [2, max_ratio]."""

    __slots__ = ("n_max", "max_ratio")
    _defaults = {"max_ratio": DEFAULT_MAX_RATIO}


@lru_cache(maxsize=None)
def _trees(leaves: int, max_ratio: int) -> tuple[int, ...]:
    """The class node of every tree with the given leaf count."""
    if leaves == 1:
        return (datum.LEAF,)
    return tuple(
        datum.intern_class(ratio, kids)
        for kids in _tree_tuples(leaves, 2, max_ratio)
        for ratio in range(2, max_ratio + 1)
    )


def _tree_tuples(total: int, min_parts: int, max_ratio: int) -> list[tuple[int, ...]]:
    """Tuples of class nodes with `total` leaves and >= min_parts parts,
    nondecreasing by (leaves, class order)."""
    results: list[tuple[int, ...]] = []

    def grow(remaining: int, lowest, acc: list) -> None:
        if remaining == 0:
            if len(acc) >= min_parts:
                results.append(tuple(acc))
            return
        # Every later part takes at least one leaf.
        largest = remaining - max(0, min_parts - len(acc) - 1)
        for leaves in range(1, largest + 1):
            for tree in _trees(leaves, max_ratio):
                key = (leaves, class_order(tree))
                if key < lowest:
                    continue
                acc.append(tree)
                grow(remaining - leaves, key, acc)
                acc.pop()

    grow(total, (0,), [])
    return results


def enumerate_data(budget: EnumerationBudget) -> Iterator[SpecialDatum]:
    """Yield one canonical representative per isomorphism class, smallest
    dimension first, in a deterministic order."""
    for n in range(1, budget.n_max + 1):
        for forest in _tree_tuples(n, 1, budget.max_ratio):
            yield class_datum(forest)


def class_count(budget: EnumerationBudget, ceiling: int | None = None) -> int:
    """The number of classes `enumerate_data(budget)` yields, without building one.

    Let T(k) count the tree shapes and F(k) the forests (multisets of trees)
    on k leaves.  The Euler transform gives k*F(k) = sum over j = 1..k of
    c(j)*F(k - j), with c(j) the sum of d*T(d) over the divisors d of j.
    Only the term j = k holds T(k), as k*T(k); the rest, divided by k, is
    F(k) - T(k), the multisets of at least two smaller trees.  A tree of
    k >= 2 leaves is a ratio in [2, max_ratio] over one of them, so
    T(k) = (max_ratio - 1)*(F(k) - T(k)).  The count is F(1) + .. + F(n_max).

    With a `ceiling`, the sum stops at the first total past it, which is
    then returned (every later F(k) is at least 1, so the budget holds more).
    """
    labels = budget.max_ratio - 1
    if labels < 1:
        return budget.n_max  # no internal node: the loose points, one class per n
    trees, forests, c = [0], [1], [0]
    total = 0
    for k in range(1, budget.n_max + 1):
        divisor_sum = sum(d * trees[d] for d in range(1, k // 2 + 1) if k % d == 0)
        several = (sum(c[j] * forests[k - j] for j in range(1, k)) + divisor_sum) // k
        trees.append(labels * several if k > 1 else 1)
        forests.append(several + trees[k])
        c.append(divisor_sum + k * trees[k])
        total += forests[k]
        if ceiling is not None and total > ceiling:
            break
    return total
