"""The check battery: outcomes, witnesses, grids, determinism of reports."""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from aqci import (
    CHECKS,
    EnumerationBudget,
    OracleBudget,
    canonical_form,
    ceiling_power_grid,
    check_datum,
    multiplicity,
    product_concavity_grid,
    run_suite,
)
from aqci import verify

from helpers import (
    INTERVAL_FIXTURE,
    reference_ceiling_power_grid,
    reference_product_concavity_grid,
    replaced,
    star,
    two_stars,
)


def outcomes(record):
    return {c["id"]: c["outcome"] for c in record["checks"]}


def test_check_table_is_well_formed():
    ids = [cid for cid, _ in CHECKS]
    names = [name for _, name in CHECKS]
    assert ids == [f"C{i}" for i in range(14)]
    assert len(set(names)) == len(names)


def test_connected_datum_record():
    rec = check_datum(star(3, 2))
    got = outcomes(rec)
    assert got["C0"] == got["C1"] == got["C2"] == got["C3"] == "pass"
    assert got["C4"] == got["C5"] == got["C6"] == got["C7"] == "pass"
    assert got["C8"] == got["C9"] == got["C10"] == "pass"
    assert got["C11"] == "skip"  # threshold hypothesis does not apply
    assert got["C12"] == "skip"  # connected, no component product to check
    assert got["C13"] == "pass"
    assert rec["emb"] == 4
    assert rec["lct"] == "3/2"
    assert rec["group_order"] == rec["group_order_lattice"] == 4
    assert rec["closure_power"] == 2
    assert rec["multiplicity"]["status"] == "exact"
    assert rec["multiplicity"]["value"] == 2
    assert rec["oracle"]["stabilized"] and rec["oracle"]["e"] == 2


def test_disconnected_datum_record():
    rec = check_datum(two_stars(2, 2))
    got = outcomes(rec)
    assert got["C3"] == "skip"
    assert got["C10"] == "skip" and got["C11"] == "skip"
    assert got["C12"] == "pass"
    assert rec["connected"] is False
    assert rec["closure_power"] == 2
    assert rec["oracle"]["e"] == 4


def test_every_skip_carries_a_reason():
    for d in (star(3, 2), two_stars(2, 2)):
        for c in check_datum(d)["checks"]:
            if c["outcome"] == "skip":
                assert c["reason"]
            else:
                assert "reason" not in c


# Every skip reason check_datum can give.
OWN = "oracle did not stabilize"
REDUCED = "oracle for the reduced datum did not stabilize"
COMPONENT = "oracle for a component did not stabilize"
NOT_CONNECTED = "weight scaling is defined only for connected data"
NO_TOP = "needs a connected datum with a composite top member"
NO_THRESHOLD = "threshold hypothesis does not apply"
CONNECTED = "datum is connected"

# Three points: every oracle table aborts.
TINY = OracleBudget(k_max=12, point_ceiling=3)


def verdicts(record):
    return [(c["id"], c["outcome"], c.get("reason")) for c in record["checks"]]


def passing_but(skips):
    """Every check passes except those in skips (id -> reason), which skip."""
    return [(cid, "skip", skips[cid]) if cid in skips else (cid, "pass", None) for cid, _ in CHECKS]


def test_unstabilized_oracle_skips_instead_of_failing():
    rec = check_datum(star(3, 2), TINY)
    assert rec["oracle"]["aborted"]
    # Oracle-free checks still run.
    assert verdicts(rec) == passing_but(
        {"C5": OWN, "C6": OWN, "C7": OWN, "C9": OWN, "C10": OWN,
         "C11": NO_THRESHOLD, "C12": CONNECTED, "C13": OWN}
    )


def test_unstabilized_oracle_on_a_disconnected_datum():
    rec = check_datum(two_stars(2, 2), TINY)
    assert rec["oracle"]["aborted"]
    assert verdicts(rec) == passing_but(
        {"C3": NOT_CONNECTED, "C5": OWN, "C6": OWN, "C7": OWN, "C9": OWN,
         "C10": NO_TOP, "C11": NO_TOP, "C12": OWN, "C13": OWN}
    )


def test_unstabilized_oracle_where_the_threshold_hypothesis_applies():
    # The reduced threshold 2 of star(2, 3) is below its ratio 3, so C11
    # applies; its floor factors are not uniform, so C9 passes unread.
    assert verdicts(check_datum(star(2, 3))) == passing_but({"C12": CONNECTED})
    rec = check_datum(star(2, 3), TINY)
    assert rec["oracle"]["aborted"]
    assert verdicts(rec) == passing_but(
        {"C5": OWN, "C6": OWN, "C7": OWN, "C10": OWN, "C11": OWN,
         "C12": CONNECTED, "C13": OWN}
    )


def unstabilized_but(monkeypatch, d):
    """Patch the oracle so that every class but d's comes back unstabilized."""
    real = verify.hilbert_samuel_table
    own = canonical_form(d)[0]

    def oracle(x, budget=OracleBudget()):
        table = real(x, budget)
        if canonical_form(x)[0] == own:
            return table
        return replaced(table, stabilized=False, e=None)

    monkeypatch.setattr(verify, "hilbert_samuel_table", oracle)


def test_unstabilized_reduced_oracle_skips_the_reduce_checks(monkeypatch):
    unstabilized_but(monkeypatch, star(2, 3))
    rec = check_datum(star(2, 3))
    assert rec["oracle"]["e"] == 2
    assert verdicts(rec) == passing_but(
        {"C10": REDUCED, "C11": REDUCED, "C12": CONNECTED}
    )


def test_unstabilized_component_oracle_skips_the_component_product(monkeypatch):
    unstabilized_but(monkeypatch, two_stars(2, 2))
    rec = check_datum(two_stars(2, 2))
    assert rec["oracle"]["e"] == 4
    assert verdicts(rec) == passing_but(
        {"C3": NOT_CONNECTED, "C10": NO_TOP, "C11": NO_TOP, "C12": COMPONENT}
    )


def test_an_oracle_value_outside_the_envelope_fails_the_containment(monkeypatch):
    real = verify.hilbert_samuel_table
    own = canonical_form(INTERVAL_FIXTURE)[0]
    result = multiplicity(INTERVAL_FIXTURE)
    assert (result.lower, result.upper) == (5, 6)
    for e in (result.upper + 1, result.lower - 1):

        def oracle(x, budget=OracleBudget(), e=e):
            table = real(x, budget)
            if canonical_form(x)[0] != own:
                return table
            return replaced(table, stabilized=True, e=e)

        monkeypatch.setattr(verify, "hilbert_samuel_table", oracle)
        (c13,) = [c for c in check_datum(INTERVAL_FIXTURE)["checks"] if c["id"] == "C13"]
        assert c13["outcome"] == "fail"
        witness = c13["witness"]
        assert set(witness) == {
            "e", "lower", "upper", "structural_status", "structural_value",
            "structural_lower", "structural_upper",
        }
        assert witness["e"] == e
        assert (witness["lower"], witness["upper"]) == ("5", "6")
        assert witness["structural_lower"] == witness["lower"]
        assert witness["structural_upper"] == witness["upper"]
        assert witness["structural_status"] == "interval"
        assert witness["structural_value"] is None


def test_record_has_documented_keys():
    rec = check_datum(star(2, 2))
    expected = {
        "datum", "n", "emb", "connected", "lct", "ceil_lct",
        "group_order", "group_order_lattice", "branching_product",
        "edge_identity", "floor_factors", "child_weight_factors",
        "floor_factor_product", "power_lower_bound", "lower_bound",
        "upper_bound", "closure_power", "multiplicity", "oracle",
        "pinned_without_uniform_factors", "checks",
    }
    assert set(rec) == expected
    json.dumps(rec)  # must be directly serializable


# ---------------------------------------------------------------------------
# Inequality grids


def test_ceiling_power_grid_is_exhaustive_and_clean():
    grid = ceiling_power_grid()
    assert grid["failures"] == []
    assert grid["points"] == 583
    # Recount the equality locus independently.
    eq = 0
    for a in range(2, 13):
        b = Fraction(a)
        while b <= 20:
            if a == 2 ** (math.ceil(b) - math.ceil(b / a)):
                eq += 1
            b += Fraction(1, 4)
    assert grid["equality_points"] == eq == 5


def test_product_concavity_grid_is_exhaustive_and_clean():
    grid = product_concavity_grid()
    assert grid["failures"] == []
    assert grid["points"] == 25 * 25 + 125 * 125 == 16250
    # Equality happens exactly at proportional pairs; recount them.
    values = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
    eq = 0
    for terms in (2, 3):
        for xs in product(values, repeat=terms):
            for cs in product(values, repeat=terms):
                if all(x * cs[0] == xs[0] * c for x, c in zip(xs, cs)):
                    eq += 1
    assert grid["equality_points"] == eq


def test_integer_grids_match_the_fraction_reference():
    assert ceiling_power_grid() == reference_ceiling_power_grid()
    assert product_concavity_grid() == reference_product_concavity_grid()


HALVES = (1, 2, 3, 4, 6)


def test_orbit_walk_meets_every_ordered_point_once():
    # Coverage apart from the inequality: the multisets of the walk (each
    # 2-term multiset and its 3-term extensions), expanded into their
    # distinct orderings, are exactly the ordered points, and each orbit
    # size is its number of orderings.
    walk = {2: [], 3: []}
    for head, size, thirds in verify._orbits():
        walk[2].append((head, size))
        walk[3].extend((head + (third,), count) for third, count in thirds)
    for terms, multisets in ((2, 325), (3, 2925)):
        seen = Counter()
        orbits = walk[terms]
        for pairs, size in orbits:
            orderings = set(permutations(pairs))
            assert size == len(orderings)
            seen.update(orderings)
        assert len(orbits) == multisets
        assert set(seen) == set(product(product(HALVES, repeat=2), repeat=terms))
        assert set(seen.values()) == {1}
        assert sum(size for _, size in orbits) == 25**terms


def test_failing_orbit_lists_its_orderings_in_the_ordered_walk_order():
    for pairs, count in ((((1, 2), (1, 2), (3, 1)), 3), (((1, 2), (3, 1), (6, 4)), 6)):
        expected = [
            (xs, cs)
            for xs in product(HALVES, repeat=3)
            for cs in product(HALVES, repeat=3)
            if sorted(zip(xs, cs)) == sorted(pairs)
        ]
        assert len(expected) == count
        assert verify._orderings(pairs) == expected


def test_corrupted_power_fails_exactly_the_points_of_the_ordered_walk(monkeypatch):
    # 3^3 one too small breaks the inequality on some multisets of every
    # orbit size (1 and 2 for two terms, 1, 3 and 6 for three).  The
    # grid's failures must be those of a walk over every ordered point with
    # the same table, in the same order: 2 terms before 3, xs then cs.
    table = verify._power_table()
    table[3][3] -= 1
    monkeypatch.setattr(verify, "_power_table", lambda: table)
    expected = []
    for terms in (2, 3):
        for xs in product(HALVES, repeat=terms):
            for cs in product(HALVES, repeat=terms):
                total_x, total_c = sum(xs), sum(cs)
                lhs = math.prod(table[x][x] for x in xs) * table[total_c][total_x]
                rhs = table[total_x][total_x] * math.prod(table[c][x] for x, c in zip(xs, cs))
                proportional = all(x * total_c == total_x * c for x, c in zip(xs, cs))
                if lhs < rhs or (lhs == rhs) != proportional:
                    expected.append((xs, cs))
    orbits = Counter((len(xs), len(set(zip(xs, cs)))) for xs, cs in expected)
    assert set(orbits) == {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}
    grid = product_concavity_grid()
    assert grid["failures"] == [
        {"xs": [str(Fraction(x, 2)) for x in xs], "cs": [str(Fraction(c, 2)) for c in cs]}
        for xs, cs in expected
    ]
    assert grid["points"] == 16250


# ---------------------------------------------------------------------------
# Suite assembly and determinism


def test_small_suite_passes_and_tallies_add_up():
    report = run_suite(EnumerationBudget(n_max=3, max_ratio=3))
    assert report.all_passed
    assert report.summary["datum_count"] == 13
    assert report.summary["failed_records"] == 0
    assert report.summary["oracle_unstabilized"] == 0
    for cid, tally in report.summary["checks"].items():
        assert tally["fail"] == 0, cid
        assert tally["pass"] + tally["skip"] == 13
    assert len(report.records) == 13
    assert [rec["index"] for rec in report.records] == list(range(13))


def test_suite_reports_are_byte_identical_across_runs():
    budget = EnumerationBudget(n_max=3, max_ratio=3)
    first = run_suite(budget)
    second = run_suite(budget)
    assert first.summary_json() == second.summary_json()
    assert first.records_jsonl() == second.records_jsonl()


def test_suite_reports_do_not_depend_on_worker_count():
    budget = EnumerationBudget(n_max=2, max_ratio=3)
    serial = run_suite(budget, jobs=1)
    parallel = run_suite(budget, jobs=2)
    assert serial.summary_json() == parallel.summary_json()
    assert serial.records_jsonl() == parallel.records_jsonl()


def test_worker_count_is_bounded_by_cores_and_classes(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    budget = EnumerationBudget(n_max=2, max_ratio=3)
    report = run_suite(budget, jobs=10**6)
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    workers = min(usable, report.summary["datum_count"])
    assert started == ([workers] if workers > 1 else [])
    assert report.records_jsonl() == run_suite(budget).records_jsonl()
    started.clear()
    assert run_suite(EnumerationBudget(n_max=1, max_ratio=3), jobs=10**6).all_passed
    assert started == []
    # One usable CPU runs serially, however many the machine has.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_suite(budget, jobs=10**6).records_jsonl() == report.records_jsonl()
    assert started == []


def test_summary_references_its_budget():
    report = run_suite(EnumerationBudget(n_max=2, max_ratio=2))
    assert report.summary["budget"] == {
        "n_max": 2,
        "max_ratio": 2,
        "oracle_k_max": 12,
        "oracle_point_ceiling": 5_000_000,
    }
    assert report.summary["oracle_skip_rate"] == "0/3"
