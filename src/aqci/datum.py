"""Weighted laminar families on {1..n} and their structural operations.

A *datum* is a family of nonempty subsets ("members") of the ground set
{1, .., n}, each carrying a positive integer weight, subject to five axioms:

  1. every singleton {i} belongs to the family;
  2. any two members are nested or disjoint (laminarity);
  3. inclusion-maximal members have weight 1;
  4. if J is strictly contained in J' then w(J) > w(J') and w(J') divides w(J);
  5. members sharing the same immediate parent have equal weight.

A valid datum presents the invariant ring generated by the monomials
x_J^{w(J)} (product of the variables indexed by J, raised to w(J)), which is
a complete intersection quotient of affine space by a finite abelian group.
Everything else in this package (thresholds, group orders, multiplicities)
is computed from this one structure.

Nested members form a forest: for any member J with at least two elements
its immediate sub-members partition J into at least two blocks of equal
weight, and every parent-to-child weight ratio is an integer >= 2.
`member_forest` builds it in one pass from a parent index and interns the
subtree below each member as a *class node*, a small int: `LEAF`, or the
node of (ratio, sorted child nodes).  Equal nodes are isomorphic subtrees,
so the structural invariants live in `ClassMemo`s, computed once per class
node by an explicit post-order loop: no recursion, however deep the tree.
The forest is built once per datum value and shared by every invariant.

`validate` reads the same parent index: one pass proves a valid datum valid,
and only a candidate it cannot prove goes through the pairwise scan that
reports every violation.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from ._record import Record

__all__ = [
    "DatumFormatError",
    "InvalidDatumError",
    "Member",
    "SpecialDatum",
    "MonomialIdeal",
    "ValidationReport",
    "Violation",
    "make_datum",
    "validate",
    "require_valid",
    "children",
    "maximal_elements",
    "is_connected",
    "restrict",
    "reduce",
    "scale",
    "monomial_ideal",
    "signature",
    "canonical_form",
    "apply_permutation",
    "is_isomorphic",
    "to_payload",
    "from_payload",
    "to_json",
    "from_json",
    "to_dot",
    "format_fraction",
    "exact_decimal",
    "exact_json",
]


# int -> str never meets the interpreter's digit limit up to 640 digits;
# 1,990 bits stay under 600.
_STR_SAFE_BITS = 1990


def exact_decimal(x: int) -> str:
    """The decimal digits of an int, exact at any size.

    `str` refuses ints past the interpreter's digit limit (4,300 digits by
    default, a guard that `from_json` relies on, so it stays in place).  A
    larger int is split by a power of ten near half its digits, and each
    half printed the same way.
    """
    if x.bit_length() <= _STR_SAFE_BITS:
        return str(x)
    if x < 0:
        return "-" + exact_decimal(-x)
    k = x.bit_length() * 3 // 20
    hi, lo = divmod(x, 10**k)
    return exact_decimal(hi) + exact_decimal(lo).zfill(k)


def exact_json(obj, **kwargs) -> str:
    """`json.dumps(obj, **kwargs)` with every int written by `exact_decimal`.

    Each int that `str` might refuse is swapped for a string token (NUL and
    an index, which `json.dumps` escapes as \\u0000), and the token's JSON
    text for the int's digits, so it stays a JSON number.  The top-level
    fields of a dict are swapped before the first dump, as the big ints of
    `aqci info` sit there, so its payload is dumped once.  Only when
    `json.dumps` still refuses an int is the whole payload walked (walking
    every payload took the report of `verify --n-max 4 --max-ratio 2` from
    1.2 to 3.3 ms).
    """
    big: list[int] = []

    def swap(x):
        if type(x) is int and x.bit_length() > _STR_SAFE_BITS:
            big.append(x)
            return f"\0{len(big) - 1}"
        if isinstance(x, dict):
            return {k: swap(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [swap(v) for v in x]
        return x

    if isinstance(obj, dict):
        obj = {k: swap(v) if type(v) is int else v for k, v in obj.items()}
    try:
        text = json.dumps(obj, **kwargs)
    except ValueError:
        text = json.dumps(swap(obj), **kwargs)
    for k, x in enumerate(big):
        text = text.replace(f'"\\u0000{k}"', exact_decimal(x), 1)
    return text


def format_fraction(x: Fraction) -> str:
    """Render an exact rational as "p/q", or just "p" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return exact_decimal(x.numerator)
    return f"{exact_decimal(x.numerator)}/{exact_decimal(x.denominator)}"


class DatumFormatError(ValueError):
    """Input does not even parse into a datum candidate (bad JSON or shape)."""


class InvalidDatumError(ValueError):
    """A structurally parsed candidate that violates the family axioms."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(v.message for v in report.violations))
        self.report = report


def _member_key(m: "Member"):
    elements = m.elements
    return (elements[0] if elements else 0, len(elements), elements, m.weight)


class Member(Record):
    """One set of the family together with its weight."""

    __slots__ = ("elements", "weight")

    def __init__(self, elements: tuple[int, ...], weight: int):
        object.__setattr__(self, "elements", tuple(sorted(set(elements))))
        object.__setattr__(self, "weight", weight)


class SpecialDatum(Record):
    """A candidate weighted laminar family; run validate() to check the axioms.

    Members are stored sorted by (smallest element, size), which is also the
    serialization order, so structural equality is label-for-label equality.
    The hash is the record hash, hash((n, members)), computed on first use
    and kept in the slot `_hash`: the caches keyed by datum
    (`member_forest`, the oracle's tables) would otherwise hash every member
    on every lookup.  It is not a field, so equality ignores it, and a
    pickle carries only n and the members.
    """

    __slots__ = ("n", "members", "_hash")
    _fields = ("n", "members")

    def __init__(self, n: int, members: tuple[Member, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", tuple(sorted(members, key=_member_key)))
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n, self.members))
            object.__setattr__(self, "_hash", h)
        return h

    def elements_of(self, j: int) -> tuple[int, ...]:
        return self.members[j].elements

    def weight_of(self, j: int) -> int:
        return self.members[j].weight


def make_datum(n: int, sets) -> SpecialDatum:
    """Build a datum candidate from (elements, weight) pairs."""
    return SpecialDatum(int(n), tuple(Member(tuple(e), int(w)) for e, w in sets))


class Violation(Record):
    """One broken axiom: its kind, a message, and the element tuples of the
    members it concerns (none by default)."""

    __slots__ = ("kind", "message", "members")
    _defaults = {"members": ()}


class ValidationReport(Record):
    """The tuple of `Violation`s of a candidate; `ok` when it is empty."""

    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> tuple[str, ...]:
        return tuple(v.kind for v in self.violations)


# Violation kinds.  Structural kinds describe malformed candidates; the
# remaining kinds map one-to-one onto the five axioms.
BAD_DIMENSION = "bad-dimension"
NO_MEMBERS = "no-members"
EMPTY_MEMBER = "empty-member"
ELEMENT_RANGE = "element-out-of-range"
NONPOSITIVE_WEIGHT = "nonpositive-weight"
DUPLICATE_MEMBER = "duplicate-member"
MISSING_SINGLETON = "missing-singleton"
NOT_LAMINAR = "not-laminar"
MAXIMAL_WEIGHT = "maximal-weight-not-one"
WEIGHT_ORDER = "weight-not-decreasing-outward"
WEIGHT_DIVISIBILITY = "weight-not-divisible"
SIBLING_WEIGHTS = "sibling-weights-differ"


def validate(d: SpecialDatum) -> ValidationReport:
    """Check every axiom and report all violations at once (never raises).

    A valid datum is proved valid in one pass over the parent index
    (`_proves_valid`), in time linear in the total size of the members.
    Any candidate that pass cannot prove valid goes through the full scan,
    which lists every violation in a fixed order.
    """
    if _proves_valid(d):
        return ValidationReport(())
    return _scan(d)


def _proves_valid(d: SpecialDatum) -> bool:
    """True only for a valid datum: the five axioms from parent-child pairs.

    `_parents` proves the family laminar without repeated members, and then
    the parent of each member is its immediate superset and the roots are the
    maximal members.  Strict increase and divisibility are transitive along
    the chain of supersets, so checking each member against its parent
    covers axiom 4, and siblings are the members with one parent.
    """
    n, members = d.n, d.members
    if n < 1 or not all(
        m.elements and 1 <= m.elements[0] and m.elements[-1] <= n and m.weight >= 1
        for m in members
    ):
        return False
    parent, nested = _parents(d)
    if not nested:
        return False
    singles = sorted(m.elements[0] for m in members if len(m.elements) == 1)
    if len(singles) != n or singles != list(range(1, n + 1)):
        return False
    kid_weight: dict[int, int] = {}
    for m, p in zip(members, parent):
        if p < 0:
            if m.weight != 1:
                return False
            continue
        outer = members[p].weight
        if m.weight <= outer or m.weight % outer or kid_weight.setdefault(p, m.weight) != m.weight:
            return False
    return True


def _scan(d: SpecialDatum) -> ValidationReport:
    """Every violation of every axiom, by a pairwise scan of the members."""
    out: list[Violation] = []
    if d.n < 1:
        out.append(Violation(BAD_DIMENSION, f"ground set size must be >= 1, got {d.n}"))
    if not d.members:
        out.append(Violation(NO_MEMBERS, "family has no members"))

    for m in d.members:
        if not m.elements:
            out.append(Violation(EMPTY_MEMBER, "empty member set", (m.elements,)))
        elif d.n >= 1 and (m.elements[0] < 1 or m.elements[-1] > d.n):
            out.append(
                Violation(
                    ELEMENT_RANGE,
                    f"member {list(m.elements)} leaves the ground set {{1..{d.n}}}",
                    (m.elements,),
                )
            )
        if m.weight < 1:
            out.append(
                Violation(
                    NONPOSITIVE_WEIGHT,
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
                Violation(DUPLICATE_MEMBER, f"member {list(elems)} appears {count} times", (elems,))
            )

    # Axiom 1: all singletons present.  Missing labels are reported per
    # maximal run, found between consecutive present singletons, so a huge
    # n costs no more than the members; a longer run names its two ends.
    present = sorted(
        {m.elements[0] for m in d.members if len(m.elements) == 1 and 1 <= m.elements[0] <= d.n}
    )
    for lo, hi in zip([0, *present], [*present, d.n + 1]):
        first, last = lo + 1, hi - 1
        if first == last:
            message, ends = f"singleton {{{first}}} is missing", ((first,),)
        elif first < last:
            message, ends = f"singletons {{{first}}} to {{{last}}} are missing", ((first,), (last,))
        else:
            continue
        out.append(Violation(MISSING_SINGLETON, message, ends))

    # Axiom 2: pairwise nested or disjoint.  The same pass lists the strict
    # supersets of every member, in member order, for axioms 3 to 5.
    sets = [frozenset(m.elements) for m in d.members]
    supers: list[list[int]] = [[] for _ in sets]
    for a in range(len(sets)):
        sa = sets[a]
        for b in range(a + 1, len(sets)):
            sb = sets[b]
            if sa < sb:
                supers[a].append(b)
            elif sb < sa:
                supers[b].append(a)
            elif sa != sb and not sa.isdisjoint(sb):
                out.append(
                    Violation(
                        NOT_LAMINAR,
                        f"members {sorted(sa)} and {sorted(sb)} overlap without nesting",
                        (d.members[a].elements, d.members[b].elements),
                    )
                )

    # Axiom 3: maximal members have weight 1.
    for a in range(len(sets)):
        if not supers[a] and d.members[a].weight != 1:
            out.append(
                Violation(
                    MAXIMAL_WEIGHT,
                    f"maximal member {list(d.members[a].elements)} has weight "
                    f"{d.members[a].weight}, expected 1",
                    (d.members[a].elements,),
                )
            )

    # Axiom 4: weights strictly increase inward and divide outward-to-inward.
    for a in range(len(sets)):
        for b in supers[a]:
            wi, wo = d.members[a].weight, d.members[b].weight
            pair = (d.members[a].elements, d.members[b].elements)
            if wi <= wo:
                out.append(
                    Violation(
                        WEIGHT_ORDER,
                        f"inner member {sorted(sets[a])} (weight {wi}) must outweigh "
                        f"outer member {sorted(sets[b])} (weight {wo})",
                        pair,
                    )
                )
            if wo > 0 and wi % wo != 0:
                out.append(
                    Violation(
                        WEIGHT_DIVISIBILITY,
                        f"weight {wo} of {sorted(sets[b])} does not divide weight "
                        f"{wi} of {sorted(sets[a])}",
                        pair,
                    )
                )

    # Axiom 5: children of a common parent share one weight.  Immediate
    # containment is meaningful even on sloppy candidates, so this check runs
    # unconditionally.  Taken by size, a superset is immediate unless it
    # contains an immediate one found before it.
    kids: list[list[int]] = [[] for _ in sets]
    for a in range(len(sets)):
        covered: set[int] = set()
        for b in sorted(supers[a], key=lambda b: len(sets[b])):
            if b not in covered:
                kids[b].append(a)
                covered.update(supers[b])
    for b in range(len(sets)):
        weights = {d.members[a].weight for a in kids[b]}
        if len(weights) > 1:
            out.append(
                Violation(
                    SIBLING_WEIGHTS,
                    f"children of {sorted(sets[b])} carry different weights {sorted(weights)}",
                    tuple(d.members[a].elements for a in kids[b]),
                )
            )

    return ValidationReport(tuple(out))


def require_valid(d: SpecialDatum) -> None:
    report = validate(d)
    if not report.ok:
        raise InvalidDatumError(report)


# Class nodes.  LEAF is the one-element tree; node x > 0 is a tree whose
# root's children carry weight ratio NODE_RATIO[x] and have the class nodes
# NODE_KIDS[x], in signature order.  Interning keys are flat tuples of ints.
LEAF = 0
NODE_RATIO: list[int] = [0]
NODE_KIDS: list[tuple[int, ...]] = [()]
NODE_LEAVES: list[int] = [1]
_NODE_IDS: dict[tuple[int, tuple[int, ...]], int] = {}


def _compare(a: int, b: int) -> int:
    """Order class nodes as their nested signature tuples compare.

    Tuples compare at their first differing entry, so the walk follows one
    pair of differing children down; it is a loop, not a recursion.
    """
    while a != b:
        if LEAF in (a, b):
            return -1 if a == LEAF else 1
        if NODE_RATIO[a] != NODE_RATIO[b]:
            return -1 if NODE_RATIO[a] < NODE_RATIO[b] else 1
        ka, kb = NODE_KIDS[a], NODE_KIDS[b]
        pair = next(((x, y) for x, y in zip(ka, kb) if x != y), None)
        if pair is None:
            return -1 if len(ka) < len(kb) else 1
        a, b = pair
    return 0


class_order = functools.cmp_to_key(_compare)


def intern_class(ratio: int, kids) -> int:
    """The class node of a tree with children `kids` of weight ratio `ratio`."""
    key = (ratio, tuple(sorted(kids, key=class_order)))
    x = _NODE_IDS.get(key)
    if x is None:
        x = _NODE_IDS[key] = len(NODE_KIDS)
        NODE_RATIO.append(ratio)
        NODE_KIDS.append(key[1])
        NODE_LEAVES.append(sum(NODE_LEAVES[k] for k in key[1]))
    return x


class ClassMemo(dict):
    """One structural invariant per class node, filled children first.

    `compute(x)` may read `memo[k]` for every child k of x: the explicit
    post-order loop in `__missing__` has stored those before it calls it.
    """

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, x: int):
        stack = [x]
        while stack:
            y = stack[-1]
            todo = [k for k in NODE_KIDS[y] if k not in self]
            if todo:
                stack.extend(todo)
            else:
                stack.pop()
                if y not in self:
                    self[y] = self.compute(y)
        return self[x]


class MemberForest(Record):
    """The member forest of a laminar family, by member index.

    `roots` are the maximal members and `kids[j]` the children of member j,
    both by smallest element; `node[j]` is the class node below member j.
    """

    __slots__ = ("roots", "kids", "node")

    @property
    def root_nodes(self) -> list[int]:
        return [self.node[j] for j in self.roots]


# Built parent indexes and forests, by datum value (least recently used).
# The caches live here, not on the datum: a pickled datum carries no class
# nodes into a process whose node ids differ.
_FOREST_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_FOREST_CACHE_SIZE)
def _parents(d: SpecialDatum) -> tuple[tuple[int, ...], bool]:
    """The parent of every member from one owner map, and whether it is nested.

    Members are visited largest first, and owner[e] is the last one seen
    that contains e.  In a laminar family without repeated members that is
    the immediate superset of every later member containing e, and the
    parent of a member is the owner of its elements (-1 for none).

    `nested` is True when, at its visit, every member's elements all had one
    owner (or none) and that owner was larger.  That proves the family
    laminar without repeats: if a member B met an earlier A in e and left it
    at f, the first member after A holding both e and f would find e owned by
    an earlier member after A, which must hold f too.

    Cached (`_FOREST_CACHE_SIZE` entries), so `validate` and `member_forest`
    share one index per datum.
    """
    members = d.members
    parent = [-1] * len(members)
    owner: dict[int, int] = {}
    nested = True
    for j in sorted(range(len(members)), key=lambda j: -len(members[j].elements)):
        elems = members[j].elements
        if elems:
            p = parent[j] = owner.get(elems[0], -1)
            if nested and (
                any(owner.get(e, -1) != p for e in elems)
                or (p >= 0 and len(members[p].elements) == len(elems))
            ):
                nested = False
        for e in elems:
            owner[e] = j
    return tuple(parent), nested


def _links(d: SpecialDatum) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(maximal members, children of each member), from the parent index.

    Only a family `_parents` proves nested has a forest: overlapping
    members, or a repeated element set (whose outer copy would get the
    inner one as its only child), raise `ValueError`.
    """
    parent, nested = _parents(d)
    if not nested:
        raise ValueError("the members are not nested: two overlap or repeat an element set")
    roots: list[int] = []
    kids: list[list[int]] = [[] for _ in d.members]
    for j, p in enumerate(parent):
        (kids[p] if p >= 0 else roots).append(j)
    return tuple(roots), tuple(map(tuple, kids))


@functools.lru_cache(maxsize=_FOREST_CACHE_SIZE)
def member_forest(d: SpecialDatum) -> MemberForest:
    """The member forest with the class node of every member (valid data).

    Built once per datum value and cached (`_FOREST_CACHE_SIZE` entries), so
    the structural invariants of one datum share one forest; the
    `MemberForest` is frozen and holds only tuples.  A candidate without
    members, with an empty member or a weight below 1, with members that
    are not nested (`_links`), or with a member of more than one element
    that has no child or only one (its singletons are missing) raises
    `ValueError`: it has no forest of class nodes.
    """
    if not d.members or any(not m.elements or m.weight < 1 for m in d.members):
        raise ValueError("a member forest needs members, each nonempty and of weight >= 1")
    roots, kids = _links(d)
    node = [LEAF] * len(kids)
    for j in sorted(range(len(kids)), key=lambda j: len(d.elements_of(j))):
        if len(kids[j]) == 1:
            raise ValueError(f"member {d.elements_of(j)} lacks its singletons: it has one child")
        if kids[j]:
            ratio = d.weight_of(kids[j][0]) // d.weight_of(j)
            node[j] = intern_class(ratio, [node[k] for k in kids[j]])
        elif len(d.elements_of(j)) > 1:
            raise ValueError(f"member {d.elements_of(j)} lacks its singletons: it has no children")
    return MemberForest(roots, kids, tuple(node))


def _normal_datum(n: int, pairs) -> SpecialDatum:
    """A datum from (elements, weight) pairs already in normal form.

    `Member(...)` sorts and dedups its elements, and `SpecialDatum(...)`
    sorts its members by `_member_key`: the normal form that equality,
    hashing and serialization read.  This sets the fields as given, without
    either `__init__`, and leaves the datum's `_hash` unset (None).  So it
    may only be given members built in that form, each `elements` a sorted
    tuple of distinct ints and the pairs in stored order: only `class_datum`
    uses it.  Untrusted input goes through the public constructors.
    """
    new, put = object.__new__, object.__setattr__
    members = []
    for elements, weight in pairs:
        m = new(Member)
        put(m, "elements", elements)
        put(m, "weight", weight)
        members.append(m)
    d = new(SpecialDatum)
    put(d, "n", n)
    put(d, "members", tuple(members))
    put(d, "_hash", None)
    return d


def class_datum(nodes) -> SpecialDatum:
    """The canonical datum whose components are the given class nodes.

    Leaves are numbered in pre-order with siblings in signature order, so a
    member's elements are consecutive; roots get weight 1.  The members come
    out in the order a datum stores them, (smallest element, size): each
    leaf, then the members whose leftmost leaf it is, innermost first, their
    elements the consecutive range from that leaf.  So `_normal_datum`
    builds the datum without sorting anything again.
    """
    pairs: list[tuple[tuple[int, ...], int]] = []
    label = 1
    # The members whose leftmost leaf comes next, outermost first.
    pending: list[tuple[int, int]] = []
    stack = [(x, 1) for x in sorted(nodes, key=class_order, reverse=True)]
    while stack:
        x, weight = stack.pop()
        if x != LEAF:
            pending.append((x, weight))
            weight *= NODE_RATIO[x]
            stack.extend((k, weight) for k in reversed(NODE_KIDS[x]))
            continue
        pairs.append(((label,), weight))
        for y, w in reversed(pending):
            pairs.append((tuple(range(label, label + NODE_LEAVES[y])), w))
        pending.clear()
        label += 1
    return _normal_datum(label - 1, pairs)


def children(d: SpecialDatum, j: int) -> list[int]:
    """Indices of the immediate sub-members of member j, by smallest element."""
    return list(_links(d)[1][j])


def maximal_elements(d: SpecialDatum) -> list[int]:
    """Indices of the inclusion-maximal members (the roots of the forest)."""
    return list(_links(d)[0])


def is_connected(d: SpecialDatum) -> bool:
    """True when a single member covers the whole ground set."""
    return len(maximal_elements(d)) == 1


def restrict(d: SpecialDatum, j: int) -> SpecialDatum:
    """The induced datum on member j, relabeled to {1..|J|} preserving order.

    Weights inside J are divided by w(J), so J itself becomes the
    inclusion-maximal member of weight 1.
    """
    outer = d.elements_of(j)
    wj = d.weight_of(j)
    pos = {e: i for i, e in enumerate(outer, start=1)}
    inside = frozenset(outer)
    members = [
        Member(tuple(pos[e] for e in m.elements), m.weight // wj)
        for m in d.members
        if frozenset(m.elements) <= inside
    ]
    return SpecialDatum(len(outer), tuple(members))


def reduce(d: SpecialDatum, j: int) -> SpecialDatum:
    """Delete a maximal member with >= 2 elements, renormalizing inside it.

    Each child block becomes maximal: weights of members inside a child J_i
    are divided by w(J_i); members outside j are untouched.
    """
    outer = frozenset(d.elements_of(j))
    if len(outer) < 2:
        raise ValueError("cannot delete a singleton member")
    if any(
        k != j and outer < frozenset(d.elements_of(k)) for k in range(len(d.members))
    ):
        raise ValueError("only inclusion-maximal members can be deleted")
    kid_sets = [(k, frozenset(d.elements_of(k))) for k in children(d, j)]
    members = []
    for i, m in enumerate(d.members):
        if i == j:
            continue
        w = m.weight
        for k, ks in kid_sets:
            if frozenset(m.elements) <= ks:
                w = m.weight // d.weight_of(k)
                break
        members.append(Member(m.elements, w))
    return SpecialDatum(d.n, tuple(members))


def scale(d: SpecialDatum, a: int) -> SpecialDatum:
    """Multiply every non-maximal weight by a (connected data only)."""
    if a < 1:
        raise ValueError(f"scale factor must be >= 1, got {a}")
    maxes = maximal_elements(d)
    if len(maxes) != 1:
        raise ValueError("scaling is defined only for connected data")
    top = maxes[0]
    members = tuple(
        Member(m.elements, 1 if i == top else m.weight * a) for i, m in enumerate(d.members)
    )
    return SpecialDatum(d.n, members)


class MonomialIdeal(Record):
    """A monomial ideal given by exponent vectors of its generators."""

    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators: tuple[tuple[int, ...], ...]):
        gens = sorted({tuple(map(int, g)) for g in generators})
        for g in gens:
            if len(g) != n:
                raise ValueError(f"generator {g} does not have {n} coordinates")
            if min(g, default=0) < 0:
                raise ValueError(f"generator {g} has a negative exponent")
            if not any(g):
                raise ValueError("the zero vector cannot generate a proper ideal")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(gens))


def monomial_ideal(d: SpecialDatum) -> MonomialIdeal:
    """The ideal generated by one monomial per member: exponent w(J) on J."""
    gens = []
    for m in d.members:
        v = [0] * d.n
        for e in m.elements:
            v[e - 1] = m.weight
        gens.append(tuple(v))
    return MonomialIdeal(d.n, tuple(gens))


_SIGNATURE = ClassMemo(
    lambda x: (0,) if x == LEAF
    else (1, NODE_RATIO[x], tuple(_SIGNATURE[k] for k in NODE_KIDS[x]))
)


def signature(d: SpecialDatum):
    """A hashable forest shape + ratio labels, invariant under relabeling."""
    return tuple(_SIGNATURE[x] for x in sorted(member_forest(d).root_nodes, key=class_order))


def apply_permutation(d: SpecialDatum, perm: tuple[int, ...]) -> SpecialDatum:
    """Relabel the ground set; perm[i-1] is the new name of element i.

    Raises `ValueError` unless `perm` is a permutation of 1..n and every
    element of `d` lies in 1..n.
    """
    if len(perm) != d.n or set(perm) != set(range(1, d.n + 1)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 1..{d.n}")
    names = dict(zip(range(1, d.n + 1), perm))
    try:
        members = tuple(Member([names[e] for e in m.elements], m.weight) for m in d.members)
    except KeyError as e:
        raise ValueError(f"element {e} is not in 1..{d.n}") from None
    return SpecialDatum(d.n, members)


def canonical_form(d: SpecialDatum) -> tuple[SpecialDatum, tuple[int, ...]]:
    """A canonical representative of the isomorphism class, plus the relabeling.

    Equal-signature siblings are tie-broken by their current smallest element,
    so the permutation itself is deterministic.  Relabels through
    `apply_permutation`, so a candidate whose leaves do not name every element
    once (one missing singletons, say) raises `ValueError`.
    """
    f = member_forest(d)

    def by_class(js):
        return sorted(js, key=lambda j: (class_order(f.node[j]), d.elements_of(j)[0]), reverse=True)

    order: list[int] = []
    stack = by_class(f.roots)
    while stack:
        j = stack.pop()
        if f.kids[j]:
            stack.extend(by_class(f.kids[j]))
        else:
            order.append(d.elements_of(j)[0])

    # A leaf outside 1..n adds a key, so perm_t is then too long.
    perm = dict.fromkeys(range(1, d.n + 1), 0)
    for new, old in enumerate(order, start=1):
        perm[old] = new
    perm_t = tuple(perm.values())
    return apply_permutation(d, perm_t), perm_t


def is_isomorphic(d1: SpecialDatum, d2: SpecialDatum) -> bool:
    return d1.n == d2.n and signature(d1) == signature(d2)


def to_payload(d: SpecialDatum) -> dict:
    return {
        "n": d.n,
        "sets": [{"elements": list(m.elements), "weight": m.weight} for m in d.members],
    }


def from_payload(obj) -> SpecialDatum:
    """Parse the documented JSON shape into a candidate.

    The axioms are not checked, except that `n` may not exceed the number of
    sets: a datum has one singleton set per element.
    """
    if not isinstance(obj, dict):
        raise DatumFormatError("datum must be a JSON object")
    if set(obj.keys()) != {"n", "sets"}:
        raise DatumFormatError('datum object must have exactly the keys "n" and "sets"')
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise DatumFormatError('"n" must be an integer')
    raw = obj["sets"]
    if not isinstance(raw, list):
        raise DatumFormatError('"sets" must be a list')
    members = []
    for entry in raw:
        if not isinstance(entry, dict) or set(entry.keys()) != {"elements", "weight"}:
            raise DatumFormatError('each set must be an object with keys "elements" and "weight"')
        elems = entry["elements"]
        weight = entry["weight"]
        if not isinstance(elems, list) or not elems:
            raise DatumFormatError('"elements" must be a nonempty list')
        for e in elems:
            if isinstance(e, bool) or not isinstance(e, int):
                raise DatumFormatError(f"element {e!r} is not an integer")
        if len(set(elems)) != len(elems):
            raise DatumFormatError(f"elements {elems} contain a repeat")
        if isinstance(weight, bool) or not isinstance(weight, int):
            raise DatumFormatError(f"weight {weight!r} is not an integer")
        members.append(Member(tuple(elems), weight))
    # Refused here, so that validation never lists n missing singletons.
    if n > len(members):
        raise DatumFormatError(
            f'"n" is {n} but there are only {len(members)} sets; '
            "a datum needs one singleton set per element"
        )
    return SpecialDatum(n, tuple(members))


def to_json(d: SpecialDatum) -> str:
    return exact_json(to_payload(d), sort_keys=True)


def from_json(text: str) -> SpecialDatum:
    # ValueError covers JSONDecodeError and integers past the digit limit;
    # the decoder raises RecursionError on deeply nested arrays.
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DatumFormatError(f"malformed JSON: {exc}") from exc
    return from_payload(obj)


def to_dot(d: SpecialDatum) -> str:
    """Graphviz rendering: one node per member (labeled by weight), edges
    from parent to child, members of equal depth on one rank."""
    lines = ["digraph datum {", "  rankdir=TB;", "  node [shape=circle];"]
    for idx, m in enumerate(d.members):
        lines.append(f'  v{idx} [label="{m.weight}"];')
    roots, kids = _links(d)
    depth = {}
    stack = [(j, 0) for j in roots]
    while stack:
        j, dep = stack.pop()
        depth[j] = dep
        for k in kids[j]:
            stack.append((k, dep + 1))
    for j in range(len(d.members)):
        for k in kids[j]:
            lines.append(f"  v{j} -> v{k};")
    for dep in sorted(set(depth.values())):
        same = [f"v{j};" for j in sorted(depth) if depth[j] == dep]
        lines.append("  { rank=same; " + " ".join(same) + " }")
    lines.append("}")
    return "\n".join(lines) + "\n"
