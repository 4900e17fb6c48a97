"""Exhaustive verification of every bound and identity on enumerated data.

For each enumerated isomorphism class the suite computes all invariants,
runs the colength oracle (on the class, on its reduced datum when it is
connected with a composite top member, on each component when it is not),
and evaluates the checks below.  Every check ends pass, fail, or skip; a
skip always carries a reason and is never silently counted as a pass.
All comparisons are exact rational comparisons; there is no epsilon anywhere.

Skips are decided in two places.  A check whose hypothesis does not hold
for the datum (C3, C10-C12) skips with that reason.  A check that reads
oracle values names them (its own e, the reduced datum's e, the components'
es), and one gate, `_gate`, skips it with the reason of the first value that
did not stabilize within budget; only then is its condition evaluated.  A
check that settles without the oracle keeps its outcome: C7 fails when the
floor-factor product is below n^n/(|G| lct^n), and C9 passes when the floor
factors are not all equal to the child-weight factors.

  C0  structural-consistency   axioms hold, canonical form is idempotent,
                               edge-count identity, branching product within
                               its power-of-two envelope
  C1  lct-two-routes           structural recursion equals the LP route
  C2  group-two-routes         group-order recursion equals the lattice index
  C3  group-scaling            weight scaling by a in {2,3} multiplies the
                               group order by a^(n-1) (connected data)
  C4  embedding-vs-lct         emb <= 2n - sum of component ceil(lct)
                               <= 2n - ceil(lct)
  C5  branching-bound          e <= branching product <= 2^(n-1), with
                               equality at 2^(n-1) iff emb = 2n-1
  C6  power-bound-equality     e <= 2^(n-ceil(lct)), with equality iff
                               emb = 2n - ceil(lct)
  C7  lower-bound-chain        e >= floor-factor product >= n^n/(|G| lct^n)
  C8  closure-power-criterion  the chain's second inequality is an equality
                               iff the closure of the ideal is a power of the
                               maximal ideal; the exponent is then n/lct and
                               the common singleton weight
  C9  floor-pinning            if every member's floor factor equals its
                               child-weight factor then e equals the product
  C10 reduce-upper             e <= r * e(reduced), equality when the
                               reduced lct is >= r
  C11 reduce-lower-strict      when lct = 1 strictly exceeds lct(reduced)/r,
                               e >= lct(reduced) * e(reduced)
  C12 component-product        e is multiplicative over components
  C13 oracle-vs-structural     the oracle e lies within the structural
                               bound envelope (so it equals the structural
                               value when that is exact)

Two closed-form inequality grids are checked alongside, exactly and in
integers: the ceiling power inequality a <= 2^(ceil(b) - ceil(b/a)) with its
equality characterization, on b in quarter-units, and concavity of
x -> x log(x/c) in product form with equality only at proportional
arguments, on x and c in half-units.  Both sides of the concavity check are
symmetric in its terms, so that grid is walked once per multiset of terms
and each multiset counts for all its orderings.

Each record starts from `invariant_fields`, the eleven invariant fields it
shares with the payload of `aqci info`, so the two never drift apart.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import partial
from itertools import permutations, product

from ._record import Record
from .datum import (
    NODE_KIDS,
    NODE_RATIO,
    SpecialDatum,
    canonical_form,
    class_datum,
    exact_decimal,
    exact_json,
    format_fraction,
    member_forest,
    monomial_ideal,
    scale,
    to_payload,
    validate,
)
from .enumeration import EnumerationBudget, enumerate_data
from .invariants import (
    edge_count_identity,
    floor_factor_product,
    group_order,
    group_order_lattice,
    summarize,
)
from .lct import class_lct, find_closure_power, lct_lp, reduced_lct
from .multiplicity import (
    OracleBudget,
    hilbert_samuel_table,
    multiplicity,
    result_payload,
    table_payload,
)

__all__ = [
    "CHECKS",
    "VerificationReport",
    "check_datum",
    "invariant_fields",
    "run_suite",
    "ceiling_power_grid",
    "product_concavity_grid",
]

CHECKS: tuple[tuple[str, str], ...] = (
    ("C0", "structural-consistency"),
    ("C1", "lct-two-routes"),
    ("C2", "group-two-routes"),
    ("C3", "group-scaling"),
    ("C4", "embedding-vs-lct"),
    ("C5", "branching-bound"),
    ("C6", "power-bound-equality"),
    ("C7", "lower-bound-chain"),
    ("C8", "closure-power-criterion"),
    ("C9", "floor-pinning"),
    ("C10", "reduce-upper"),
    ("C11", "reduce-lower-strict"),
    ("C12", "component-product"),
    ("C13", "oracle-vs-structural"),
)

_NAMES = dict(CHECKS)


def _pass(cid: str) -> dict:
    return {"id": cid, "name": _NAMES[cid], "outcome": "pass"}

def _fail(cid: str, witness: dict) -> dict:
    return {"id": cid, "name": _NAMES[cid], "outcome": "fail", "witness": witness}

def _skip(cid: str, reason: str) -> dict:
    return {"id": cid, "name": _NAMES[cid], "outcome": "skip", "reason": reason}

def _cond(cid: str, ok: bool, witness: dict) -> dict:
    return _pass(cid) if ok else _fail(cid, witness)


def _gate(cid: str, reads, settle) -> dict:
    """The one place where a missing oracle value turns into a skip.

    `reads` lists the (value, reason) pairs of the oracle values the check
    reads, in order; the first value that is None skips the check with its
    reason.  Otherwise `settle()` gives the check's (condition, witness).
    """
    for value, reason in reads:
        if value is None:
            return _skip(cid, reason)
    return _cond(cid, *settle())


def invariant_fields(d: SpecialDatum, summary, result, closure_q) -> dict:
    """The JSON fields that `aqci info` and every verify record share.

    `summary` is `summarize(d)`, `result` is `multiplicity(d)` (its bound
    envelope gives `lower_bound` and `upper_bound`) and `closure_q` is
    `find_closure_power(d)`.
    """
    return {
        "n": summary.n,
        "emb": summary.emb,
        "connected": len(member_forest(d).root_nodes) == 1,
        "lct": format_fraction(summary.lct),
        "ceil_lct": summary.ceil_lct,
        "group_order": summary.group_order,
        "group_order_lattice": summary.group_order_lattice,
        "branching_product": summary.branching_product,
        "lower_bound": exact_decimal(result.lower),
        "upper_bound": exact_decimal(result.upper),
        "closure_power": closure_q,
    }


def check_datum(d: SpecialDatum, oracle_budget: OracleBudget = OracleBudget()) -> dict:
    """Evaluate every check on one datum; returns a JSON-ready record."""
    summary = summarize(d)
    n, emb, lct, ceil_lct = summary.n, summary.emb, summary.lct, summary.ceil_lct
    gorder, glattice = summary.group_order, summary.group_order_lattice
    bprod = summary.branching_product
    closure_q = find_closure_power(d)
    result = multiplicity(d)
    fields = invariant_fields(d, summary, result, closure_q)
    comps = member_forest(d).root_nodes
    conn = fields["connected"]
    composite = conn and n >= 2
    edge_lhs, edge_rhs = edge_count_identity(d)
    ffp = floor_factor_product(d)
    power_lower = (Fraction(n) / lct) ** n / gorder

    # The oracle values the checks read: the datum's own e, the reduced
    # datum's e (connected data with a composite top) and the components' es
    # (disconnected data).
    table = hilbert_samuel_table(d, oracle_budget)
    e = table.e
    own = [(e, "oracle did not stabilize")]
    if composite:
        r, red_lct = NODE_RATIO[comps[0]], reduced_lct[comps[0]]
        red_e = hilbert_samuel_table(class_datum(NODE_KIDS[comps[0]]), oracle_budget).e
        reduced = own + [(red_e, "oracle for the reduced datum did not stabilize")]
    if not conn:
        comp_es = [hilbert_samuel_table(class_datum([x]), oracle_budget).e for x in comps]
        components = own + [(x, "oracle for a component did not stabilize") for x in comp_es]

    floors = [f for _, f in summary.floor_factors]
    weights_factors = [w for _, w in summary.child_weight_factors]
    uniform = all(a == b for a, b in zip(floors, weights_factors))
    ffp_text, power_lower_text = format_fraction(ffp), format_fraction(power_lower)
    half_power, power = 2 ** (n - 1), 2 ** (n - ceil_lct)

    checks: list[dict] = []

    # C0: the datum itself is coherent.
    validation = validate(d)
    canon, _ = canonical_form(d)
    recanon, _ = canonical_form(canon)
    structural_ok = (
        validation.ok
        and recanon == canon
        and edge_lhs == edge_rhs
        and (not conn or edge_rhs == n - 1)
        and bprod <= 2 ** (n - len(comps)) <= 2 ** (n - 1)
    )
    checks.append(
        _cond(
            "C0",
            structural_ok,
            {
                "violations": [v.kind for v in validation.violations],
                "edge_identity": [edge_lhs, edge_rhs],
                "branching_product": bprod,
            },
        )
    )

    lct_by_lp = lct_lp(monomial_ideal(d))
    checks.append(
        _cond(
            "C1",
            lct == lct_by_lp,
            {"recursion": format_fraction(lct), "lp": format_fraction(lct_by_lp)},
        )
    )

    checks.append(_cond("C2", gorder == glattice, {"recursion": gorder, "lattice": glattice}))

    if conn:
        ok = True
        wit = {}
        for a in (2, 3):
            scaled = scale(d, a)
            expected = a ** (n - 1) * gorder
            got_rec = group_order(scaled)
            got_lat = group_order_lattice(scaled)
            if got_rec != expected or got_lat != expected:
                ok = False
                wit = {"a": a, "expected": expected, "recursion": got_rec, "lattice": got_lat}
        checks.append(_cond("C3", ok, wit))
    else:
        checks.append(_skip("C3", "weight scaling is defined only for connected data"))

    comp_ceils = sum(math.ceil(class_lct[x]) for x in comps)
    checks.append(
        _cond(
            "C4",
            emb <= 2 * n - comp_ceils <= 2 * n - ceil_lct,
            {"emb": emb, "component_ceils": comp_ceils, "ceil_lct": ceil_lct},
        )
    )

    checks.append(_gate("C5", own, lambda: (
        e <= bprod and e <= half_power and ((e == half_power) == (emb == 2 * n - 1)),
        {"e": e, "branching_product": bprod, "emb": emb, "bound": half_power},
    )))

    checks.append(_gate("C6", own, lambda: (
        e <= power and ((e == power) == (emb == 2 * n - ceil_lct)),
        {"e": e, "bound": power, "emb": emb, "ceil_lct": ceil_lct},
    )))

    if ffp < power_lower:
        checks.append(_fail(
            "C7", {"floor_factor_product": ffp_text, "power_lower_bound": power_lower_text}
        ))
    else:
        checks.append(_gate("C7", own, lambda: (
            e >= ffp, {"e": e, "floor_factor_product": ffp_text}
        )))

    tight = ffp == power_lower
    ok = tight == (closure_q is not None)
    wit = {
        "floor_factor_product": ffp_text,
        "power_lower_bound": power_lower_text,
        "closure_power": closure_q,
    }
    if ok and closure_q is not None:
        singles = [m.weight for m in d.members if len(m.elements) == 1]
        ok = Fraction(closure_q) * lct == n and all(w == closure_q for w in singles)
        wit["lct"] = format_fraction(lct)
        wit["singleton_weights"] = singles
    checks.append(_cond("C8", ok, wit))

    if uniform:
        checks.append(_gate("C9", own, lambda: (
            e == ffp, {"e": e, "floor_factor_product": ffp_text}
        )))
    else:
        checks.append(_pass("C9"))

    if composite:
        checks.append(_gate("C10", reduced, lambda: (
            e <= r * red_e and (red_lct < r or e == r * red_e),
            {"e": e, "r": r, "reduced_e": red_e, "reduced_lct": format_fraction(red_lct)},
        )))
        if red_lct < r:
            # Threshold of d is 1 here, strictly above red_lct / r.
            checks.append(_gate("C11", reduced, lambda: (
                e >= red_lct * red_e,
                {"e": e, "reduced_e": red_e, "reduced_lct": format_fraction(red_lct)},
            )))
        else:
            checks.append(_skip("C11", "threshold hypothesis does not apply"))
    else:
        reason = "needs a connected datum with a composite top member"
        checks.append(_skip("C10", reason))
        checks.append(_skip("C11", reason))

    if conn:
        checks.append(_skip("C12", "datum is connected"))
    else:
        checks.append(_gate("C12", components, lambda: (
            e == math.prod(comp_es), {"e": e, "component_es": comp_es}
        )))

    # The structural result is the bound envelope: exact when lower == upper.
    lower, upper = fields["lower_bound"], fields["upper_bound"]
    checks.append(_gate("C13", own, lambda: (
        result.lower <= e <= result.upper,
        {
            "e": e,
            "lower": lower,
            "upper": upper,
            "structural_status": result.status,
            "structural_value": result.value,
            "structural_lower": lower,
            "structural_upper": upper,
        },
    )))

    pinned_without_uniform = e is not None and e == ffp and not uniform

    return {
        **fields,
        "datum": to_payload(d),
        "edge_identity": [edge_lhs, edge_rhs],
        "floor_factors": [format_fraction(x) for x in floors],
        "child_weight_factors": [format_fraction(x) for x in weights_factors],
        "floor_factor_product": ffp_text,
        "power_lower_bound": power_lower_text,
        "multiplicity": result_payload(result),
        "oracle": table_payload(table),
        "pinned_without_uniform_factors": pinned_without_uniform,
        "checks": checks,
    }


def ceiling_power_grid() -> dict:
    """Exhaustive exact check of a <= 2^(ceil(b) - ceil(b/a)) on a rational grid.

    a runs over the integers [2, 12]; b runs over [a, 20] in steps of 1/4.
    Equality must occur exactly when a = 2 and ceil(b) - ceil(b/a) = 1.
    With b = t/4 for an integer t, both ceilings are integer divisions.
    """
    failures: list[dict] = []
    points = 0
    equality_points = 0
    for a in range(2, 13):
        for t in range(4 * a, 81):
            k = -(-t // 4) - -(-t // (4 * a))  # ceil(t/4) - ceil(t/(4a))
            is_equal = a == 2**k
            if a > 2**k or is_equal != (a == 2 and k == 1):
                failures.append({"a": a, "b": format_fraction(Fraction(t, 4)), "exponent": k})
            points += 1
            equality_points += int(is_equal)
    return {"points": points, "equality_points": equality_points, "failures": failures}


# The grid's coordinates in half-units, and its pairs (x, c) in product order.
_HALVES = (1, 2, 3, 4, 6)
_PAIRS = tuple(product(_HALVES, repeat=2))


def _power_table() -> list[list[int]]:
    """p[c][x] = c**x for c, x up to 18, the largest sum of three coordinates."""
    top = 3 * _HALVES[-1]
    return [[c**x for x in range(top + 1)] for c in range(top + 1)]


def _orbits():
    """Each multiset of two grid pairs once, as its nondecreasing tuple
    (a, b), with its orbit size under permutations of the term positions,
    and the multisets (a, b, c) of three pairs that extend it: each c from
    b on, with its orbit size.  So every multiset of three pairs is met
    once, nondecreasing.  Only neighbours of a nondecreasing tuple can be
    equal, so an orbit size is terms!/m! with m the length of its longest
    run of equal pairs: 2 or 1 for two terms, 6, 3 or 1 for three."""
    for i, a in enumerate(_PAIRS):
        for j in range(i, len(_PAIRS)):
            equal = i == j
            # c == b lengthens the run of b; each later c is new.
            sizes = ((3, 1)[equal],) + ((6, 3)[equal],) * (len(_PAIRS) - 1 - j)
            yield (a, _PAIRS[j]), (2, 1)[equal], zip(_PAIRS[j:], sizes)


def _orderings(pairs) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The distinct orderings of a multiset of pairs as (xs, cs), sorted as
    a walk over xs and then cs in product order meets them."""
    return sorted(tuple(zip(*p)) for p in set(permutations(pairs)))


def product_concavity_grid() -> dict:
    """Exhaustive exact check of the weighted power inequality on small grids.

    For positive rationals, prod((x_i/c_i)^(x_i)) >= ((sum x)/(sum c))^(sum x)
    with equality exactly when all the ratios x_i/c_i agree.  Checked for 2
    and 3 terms with every coordinate drawn from {1/2, 1, 3/2, 2, 3}.

    The grid is walked in half-units {1, 2, 3, 4, 6}: doubling every x and c
    keeps each ratio and squares both sides.  With X = sum x and C = sum c
    the inequality is then prod(x_i^x_i) * C^X >= X^X * prod(c_i^x_i) in
    integers, and the ratios agree iff x_i * C == X * c_i for every i.
    Every power has base and exponent at most 18, so all of them come from
    one table built per call.

    Both integers and the proportionality test are symmetric functions of
    the pairs (x_i, c_i): permuting the term positions permutes the factors
    of each product and the summands of each sum, and nothing else.  So
    every ordering of one multiset of pairs gives the same comparison, and
    the walk decides each multiset once (325 for 2 terms, 2,925 for 3) and
    counts it with its orbit size toward `points` and `equality_points`,
    which still count the 16,250 ordered points.  The walk takes each
    2-term multiset of `_orbits` in turn, decides it, and then decides its
    3-term extensions; the sums and products of the first two terms carry
    into that inner loop.  A failing multiset lists all its distinct
    orderings, sorted as the ordered walk over xs and then cs would meet
    them, the 2-term failures before the 3-term ones.
    """
    power = _power_table()
    failing: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {2: [], 3: []}
    points = 0
    equality_points = 0
    for head, size, thirds in _orbits():
        (x1, c1), (x2, c2) = head
        head_x, head_c = x1 + x2, c1 + c2
        x_powers = power[x1][x1] * power[x2][x2]
        c_powers = power[c1][x1] * power[c2][x2]
        lhs = x_powers * power[head_c][head_x]
        rhs = power[head_x][head_x] * c_powers
        if lhs < rhs or (lhs == rhs) != (x1 * head_c == head_x * c1 and x2 * head_c == head_x * c2):
            failing[2].extend(_orderings(head))
        points += size
        if lhs == rhs:
            equality_points += size
        for third, size in thirds:
            x3, c3 = third
            total_x, total_c = head_x + x3, head_c + c3
            lhs = x_powers * power[x3][x3] * power[total_c][total_x]
            rhs = power[total_x][total_x] * c_powers * power[c3][x3]
            proportional = (
                x1 * total_c == total_x * c1
                and x2 * total_c == total_x * c2
                and x3 * total_c == total_x * c3
            )
            if lhs < rhs or (lhs == rhs) != proportional:
                failing[3].extend(_orderings(head + (third,)))
            points += size
            if lhs == rhs:
                equality_points += size
    failures = [
        {
            "xs": [format_fraction(Fraction(x, 2)) for x in xs],
            "cs": [format_fraction(Fraction(c, 2)) for c in cs],
        }
        for terms in (2, 3)
        for xs, cs in sorted(failing[terms])
    ]
    return {"points": points, "equality_points": equality_points, "failures": failures}


class VerificationReport(Record):
    """The summary dict of a verify run and its tuple of per-class record dicts."""

    __slots__ = ("summary", "records")

    @property
    def all_passed(self) -> bool:
        return bool(self.summary["all_passed"])

    def summary_json(self) -> str:
        return exact_json(self.summary, sort_keys=True, indent=2) + "\n"

    def records_jsonl(self) -> str:
        return "".join(exact_json(r, sort_keys=True) + "\n" for r in self.records)


def _tally(records) -> dict:
    out = {cid: {"pass": 0, "fail": 0, "skip": 0} for cid, _ in CHECKS}
    for rec in records:
        for c in rec["checks"]:
            out[c["id"]][c["outcome"]] += 1
    return out


def run_suite(
    budget: EnumerationBudget, oracle: OracleBudget = OracleBudget(), jobs: int = 1
) -> VerificationReport:
    """Enumerate every class in budget, run all checks (the colength oracle
    within `oracle`), and assemble a report.

    The report is deterministic: records appear in enumeration order and all
    JSON is emitted with sorted keys, so identical budgets produce
    byte-identical reports (regardless of `jobs`).
    """
    data = list(enumerate_data(budget))
    # More workers than classes or usable CPUs (the affinity set, where the
    # platform has one) only costs forks.
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    workers = min(jobs, len(data), usable)
    if workers > 1:
        # Imported here, its only use: the pool's modules (multiprocessing,
        # socket, pickle, ...) would otherwise load in every aqci process.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(partial(check_datum, oracle_budget=oracle), data))
    else:
        records = [check_datum(d, oracle) for d in data]
    for i, rec in enumerate(records):
        rec["index"] = i

    tallies = _tally(records)
    failed_records = sum(
        1 for rec in records if any(c["outcome"] == "fail" for c in rec["checks"])
    )
    unstabilized = sum(1 for rec in records if not rec["oracle"]["stabilized"])
    ceiling = ceiling_power_grid()
    concavity = product_concavity_grid()
    summary = {
        "budget": {
            "n_max": budget.n_max,
            "max_ratio": budget.max_ratio,
            "oracle_k_max": oracle.k_max,
            "oracle_point_ceiling": oracle.point_ceiling,
        },
        "datum_count": len(records),
        "failed_records": failed_records,
        "checks": tallies,
        "oracle_stabilized": len(records) - unstabilized,
        "oracle_unstabilized": unstabilized,
        "oracle_skip_rate": f"{unstabilized}/{len(records)}",
        "interval_results": sum(
            1 for rec in records if rec["multiplicity"]["status"] == "interval"
        ),
        "pinned_without_uniform_factors": sum(
            1 for rec in records if rec["pinned_without_uniform_factors"]
        ),
        "grids": {"ceiling_power": ceiling, "product_concavity": concavity},
        "all_passed": failed_records == 0
        and not ceiling["failures"]
        and not concavity["failures"],
    }
    return VerificationReport(summary, tuple(records))
