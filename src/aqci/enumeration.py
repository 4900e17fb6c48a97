"""Exhaustive enumeration of datum isomorphism classes.

An isomorphism class of valid data is the same thing as a multiset of rooted
trees whose leaves are the ground elements, where every internal node has at
least two children and carries an integer ratio label in [2, max_ratio] (the
factor between its weight and its children's weight; roots have weight 1).
Trees are generated in a fixed structural order and forests as nondecreasing
tuples of trees, so the output order is deterministic and duplicate-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from . import datum
from .datum import SpecialDatum, class_datum

__all__ = ["EnumerationBudget", "enumerate_data", "class_count"]

LEAF = ("leaf",)


@dataclass(frozen=True)
class EnumerationBudget:
    """Size limits for enumeration: dimension up to n_max, ratios in [2, max_ratio]."""

    n_max: int
    max_ratio: int = 3


@lru_cache(maxsize=None)
def _trees(leaves: int, max_ratio: int) -> tuple:
    """All tree shapes with the given leaf count, in structural order."""
    if leaves == 1:
        return (LEAF,)
    out = []
    for kids in _tree_tuples(leaves, 2, max_ratio):
        for ratio in range(2, max_ratio + 1):
            out.append(("node", ratio, kids))
    return tuple(out)


def _tree_tuples(total: int, min_parts: int, max_ratio: int) -> list[tuple]:
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
            for tree in _trees(leaves, max_ratio):
                key = (leaves, tree)
                if key < lowest:
                    continue
                acc.append(tree)
                grow(remaining - leaves, key, acc)
                acc.pop()

    grow(total, (0, ()), [])
    return results


def _class_node(tree) -> int:
    if tree == LEAF:
        return datum.LEAF
    _, ratio, kids = tree
    return datum.intern_class(ratio, [_class_node(k) for k in kids])


def enumerate_data(budget: EnumerationBudget) -> Iterator[SpecialDatum]:
    """Yield one canonical representative per isomorphism class, smallest
    dimension first, in a deterministic order."""
    for n in range(1, budget.n_max + 1):
        for forest in _tree_tuples(n, 1, budget.max_ratio):
            yield class_datum([_class_node(tree) for tree in forest])


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
