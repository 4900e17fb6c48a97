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

__all__ = ["EnumerationBudget", "enumerate_data"]

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
