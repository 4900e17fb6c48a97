"""Inputs, timed work and output checks of the three benchmark workloads.

Every call into the package goes through an attribute of the `aqci` package
(`aqci.lct_datum(d)`, never a name imported into this module), so the
tracer in `spans.py` sees it after rebinding those attributes.

Workloads (see README.md for why each one exists):

  verify-n4r2  `aqci verify --n-max 4 --max-ratio 2 --report PATH` through
               `aqci.cli.main`; the seed is recorded but unused, because the
               command enumerates its classes itself.
  sweep-n6r3   every structural invariant, no colength oracle, of a fixed
               quarter of the 844 classes with n <= 6 and ratio <= 3.  The
               seed relabels each input and shuffles their order.
  scale        three large single inputs: every structural invariant of a
               deep chain and of a wide star, and the colength oracle of one
               large class.  The seed relabels each input.

Outputs are checked against `reference.json`, keyed by `class_key`, which is
computed here from the member sets alone, independently of the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import zlib
from fractions import Fraction
from pathlib import Path

import aqci
import aqci.cli

WORKLOADS = ("verify-n4r2", "sweep-n6r3", "scale")

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

VERIFY_N_MAX, VERIFY_MAX_RATIO = 4, 2
SWEEP_N_MAX, SWEEP_MAX_RATIO = 6, 3
# The sweep takes the classes whose key hashes to 0 mod SWEEP_SHARE (211 of
# 844), so a run fits several reps; the choice depends on the class alone,
# never on the order in which the package enumerates classes.
SWEEP_SHARE = 4
# The scale workload's probes, sized to about 2-3 s each: deep recursion
# (the bound recursions and the restrict/reduce churn of the chain),
# one large LP family (the closure sweep dominates the star: 153 LPs with 18
# generators) and one large oracle working set (about 90k semigroup points).
CHAIN_N = 28
STAR_N, STAR_WEIGHT = 17, 2
ORACLE_RATIOS = (3, 2, 2)

# Structural values compared exactly with the reference.
EXACT_FIELDS = (
    "lct",
    "group_order",
    "group_order_lattice",
    "branching_product",
    "floor_factor_product",
    "lower_bound",
    "upper_bound",
    "closure_power",
)


def class_key(members) -> str:
    """Label-free key of an isomorphism class.

    `members` is an iterable of (elements, weight).  The key is the member
    forest with the weight ratio on every edge, children sorted, so two data
    get the same key exactly when they differ by a relabeling.
    """
    sets = sorted(((frozenset(e), w) for e, w in members), key=lambda m: -len(m[0]))
    kids: list[list[int]] = [[] for _ in sets]
    roots = []
    for i, (s, _) in enumerate(sets):
        # Supersets form a chain; the smallest one comes last in this order.
        parents = [j for j in range(i) if s < sets[j][0]]
        (kids[parents[-1]] if parents else roots).append(i)

    def key(i: int, parent_weight: int) -> str:
        w = sets[i][1]
        return f"{w // parent_weight}(" + ",".join(sorted(key(k, w) for k in kids[i])) + ")"

    return ",".join(sorted(key(r, 1) for r in roots))


def datum_key(d) -> str:
    return class_key((m.elements, m.weight) for m in d.members)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


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
    return aqci.make_datum(n, members)


def star(n: int, a: int):
    """One maximal member over n singleton leaves of weight a."""
    return aqci.make_datum(n, [(tuple(range(1, n + 1)), 1)] + [((i,), a) for i in range(1, n + 1)])


def relabel(d, rng: random.Random):
    perm = list(range(1, d.n + 1))
    rng.shuffle(perm)
    return aqci.apply_permutation(d, tuple(perm))


def enumerated_classes(n_max: int = SWEEP_N_MAX, max_ratio: int = SWEEP_MAX_RATIO) -> list:
    return list(aqci.enumerate_data(aqci.EnumerationBudget(n_max, max_ratio)))


def in_sweep(key: str) -> bool:
    return zlib.crc32(key.encode()) % SWEEP_SHARE == 0


def probes() -> list:
    """The scale workload's inputs for the structural invariants."""
    return [chain(*[2] * (CHAIN_N - 1)), star(STAR_N, STAR_WEIGHT)]


def oracle_probe():
    """The scale workload's input for the colength oracle; an enumerated class."""
    return chain(*ORACLE_RATIOS)


def setup(workload: str, seed: int):
    """Build the inputs of one rep.  Same seed, same inputs."""
    rng = random.Random(seed)
    if workload == "verify-n4r2":
        return None
    if workload == "sweep-n6r3":
        items = [relabel(d, rng) for d in enumerated_classes() if in_sweep(datum_key(d))]
        rng.shuffle(items)
        return items
    if workload == "scale":
        return [relabel(d, rng) for d in probes()] + [relabel(oracle_probe(), rng)]
    raise ValueError(f"unknown workload {workload!r}")


def structural_values(d) -> dict:
    """Every structural public function that `check_datum` calls, on one datum.

    Everything but the colength oracle.  `lct_lp` is returned as its own
    value and checked against the reference threshold.
    """
    canon, _ = aqci.canonical_form(d)
    aqci.signature(d)
    result = aqci.multiplicity(d)
    return {
        "valid": aqci.validate(d).ok,
        "canonical_key": datum_key(canon),
        "lct": aqci.lct_datum(d),
        "lct_lp": aqci.lct_lp(aqci.monomial_ideal(d)),
        "group_order": aqci.group_order(d),
        "group_order_lattice": aqci.group_order_lattice(d),
        "branching_product": aqci.branching_product(d),
        "edge_identity": list(aqci.edge_count_identity(d)),
        "floor_factor_product": aqci.floor_factor_product(d),
        "multiplicity": {
            "status": result.status,
            "value": result.value,
            "lower": result.lower,
            "upper": result.upper,
        },
        "lower_bound": aqci.multiplicity_lower_bound(d),
        "upper_bound": aqci.multiplicity_upper_bound(d),
        "closure_power": aqci.find_closure_power(d),
    }


def oracle_values(d) -> dict:
    table = aqci.hilbert_samuel_table(d)
    return {"e": table.e, "stabilized": table.stabilized, "aborted": table.aborted}


def _guarded(fn, *args):
    """Run one item; an exception is the item's output, so it counts as failed."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any raise fails the item, the run goes on
        return {"error": f"{type(exc).__name__}: {exc}"}


def execute(workload: str, inputs, scratch: Path, mark=None):
    """The timed section of one rep; returns the raw outputs to check.

    `mark(item)` is called before each item, so a tracer can tag its spans.
    """
    if workload == "verify-n4r2":
        report = scratch / f"verify-{os.getpid()}.json"
        argv = ["verify", "--n-max", str(VERIFY_N_MAX), "--max-ratio", str(VERIFY_MAX_RATIO),
                "--report", str(report)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            out = _guarded(aqci.cli.main, argv)
        return {"exit": out, "report": report}
    if workload in ("sweep-n6r3", "scale"):
        outputs = []
        for i, d in enumerate(inputs):
            if mark:
                mark(i)
            oracle = workload == "scale" and i == len(inputs) - 1
            outputs.append(_guarded(oracle_values if oracle else structural_values, d))
        return outputs
    raise ValueError(f"unknown workload {workload!r}")


def multiplicity_consistent(got: dict, ref: dict) -> bool:
    """The structural multiplicity says no less than the reference.

    An exact reference needs the same exact value.  An interval reference
    accepts an exact value inside it or any interval inside it, so a later
    certified multiplicity passes without editing the reference.
    """
    lo, hi = Fraction(ref["lower"]), Fraction(ref["upper"])
    got_lo, got_hi = Fraction(got["lower"]), Fraction(got["upper"])
    if ref["status"] == "exact":
        return got["status"] == "exact" and got["value"] == ref["value"]
    if got["status"] == "exact":
        return lo <= got["value"] <= hi
    return lo <= got_lo <= got_hi <= hi


def _same(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return Fraction(got) == Fraction(want)


def value_problems(values: dict, ref: dict) -> list[str]:
    """Mismatches between computed invariants and their class reference."""
    problems = [
        f"{field} {values[field]} != {ref[field]}"
        for field in EXACT_FIELDS
        if not _same(values[field], ref[field])
    ]
    if list(values["edge_identity"]) != ref["edge_identity"]:
        problems.append(f"edge_identity {values['edge_identity']} != {ref['edge_identity']}")
    if not multiplicity_consistent(values["multiplicity"], ref["multiplicity"]):
        problems.append(f"multiplicity {values['multiplicity']} outside {ref['multiplicity']}")
    return problems


def structural_problems(values: dict, ref: dict, key: str) -> list[str]:
    """Problems of one `structural_values` item whose class key is `key`."""
    if "error" in values:
        return [values["error"]]
    problems = value_problems(values, ref)
    if not values["valid"]:
        problems.append("validate reports violations")
    if values["canonical_key"] != key:
        problems.append("canonical form changed the class")
    if not _same(values["lct_lp"], ref["lct"]):
        problems.append(f"lct_lp {values['lct_lp']} != {ref['lct']}")
    return problems


def _record_problems(rec: dict, ref: dict) -> list[str]:
    """One `aqci verify` record against its class reference."""
    problems = [f"{c['id']} failed" for c in rec["checks"] if c["outcome"] == "fail"]
    problems += [
        f"{c['id']} skipped: {c['reason']}"
        for c in rec["checks"]
        if c["outcome"] == "skip" and "stabilize" in c["reason"]
    ]
    return problems + value_problems(rec, ref) + oracle_problems(rec["oracle"], ref)


def oracle_problems(oracle: dict, ref: dict) -> list[str]:
    """An oracle result (`aborted`, `stabilized`, `e`) against its class reference."""
    if "error" in oracle:
        return [oracle["error"]]
    if oracle["aborted"] or not oracle["stabilized"]:
        return ["oracle did not stabilize or aborted"]
    if oracle["e"] != ref["e"]:
        return [f"oracle e {oracle['e']} != {ref['e']}"]
    return []


def check(workload: str, inputs, outputs, reference: dict) -> tuple[int, int, list[str]]:
    """Compare one rep's outputs with the reference.

    Returns (attempted items, failed items, first problems found).
    """
    classes = reference["classes"]
    failures: dict[str, list[str]] = {}
    if workload == "verify-n4r2":
        # Every class with an oracle reference but the scale workload's.
        expected = {k for k, ref in classes.items() if "e" in ref} - {datum_key(oracle_probe())}
        grids = ("ceiling_power", "product_concavity")
        report = outputs["report"]
        jsonl = report.with_suffix(".jsonl")
        try:
            with open(report, encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(jsonl, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
        except (OSError, ValueError) as exc:
            attempted = len(expected) + len(grids)
            return attempted, attempted, [f"no report ({exc}); exit {outputs['exit']}"]
        finally:
            for path in (report, jsonl):
                with contextlib.suppress(OSError):
                    path.unlink()
        seen = set()
        for rec in records:
            key = class_key((s["elements"], s["weight"]) for s in rec["datum"]["sets"])
            if key not in expected or key in seen:
                failures[f"unexpected:{key}"] = ["class not in the reference or repeated"]
                continue
            seen.add(key)
            problems = _record_problems(rec, classes[key])
            if problems:
                failures[key] = problems
        for key in expected - seen:
            failures[key] = ["class missing from the report"]
        for name in grids:
            grid = summary["grids"].get(name, {"failures": ["grid missing"]})
            if grid["failures"]:
                failures[f"grid:{name}"] = [f"{len(grid['failures'])} grid failures"]
        if outputs["exit"] != 0 and not failures:
            failures["exit"] = [f"exit code {outputs['exit']}"]
        attempted = len(expected) + len(grids) + sum(k.startswith("unexpected:") for k in failures)
    elif workload in ("sweep-n6r3", "scale"):
        probe_keys = {datum_key(d) for d in probes()}
        oracle_key = datum_key(oracle_probe())
        if workload == "sweep-n6r3":
            expected = {k for k in classes if in_sweep(k) and k not in probe_keys}
        else:
            expected = probe_keys | {oracle_key}
        attempted = len(expected)
        seen = set()
        for i, (d, values) in enumerate(zip(inputs, outputs)):
            key = datum_key(d)
            if key not in expected or key in seen:
                failures[f"unexpected:{key}"] = ["class not in the reference or repeated"]
                attempted += 1
                continue
            seen.add(key)
            if workload == "scale" and i == len(inputs) - 1:
                problems = oracle_problems(values, classes[key])
            else:
                problems = structural_problems(values, classes[key], key)
            if problems:
                failures[key] = problems
        for key in expected - seen:
            failures[key] = ["class missing from the enumeration"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    shown = [f"{k}: {'; '.join(v)}" for k, v in sorted(failures.items())[:10]]
    return attempted, len(failures), shown
