"""Write reference.json: the expected invariants of every benchmark input.

Usage: python3 bench/make_reference.py

Run at a commit whose outputs are trusted; the benchmark then checks every
later commit against the file.  Classes are keyed by `workloads.class_key`
and computed on canonical (unrelabeled) inputs, so a seed's relabeling can
only pass if every invariant is label-invariant.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import aqci  # noqa: E402
import workloads  # noqa: E402


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def reference_entry(d) -> dict:
    values = workloads.structural_values(d)
    entry = {field: _jsonable(values[field]) for field in workloads.EXACT_FIELDS}
    entry["edge_identity"] = values["edge_identity"]
    entry["multiplicity"] = _jsonable(values["multiplicity"])
    return entry


def main() -> None:
    data = workloads.enumerated_classes() + workloads.probes()
    classes = {workloads.datum_key(d): reference_entry(d) for d in data}
    oracle_inputs = workloads.enumerated_classes(workloads.VERIFY_N_MAX, workloads.VERIFY_MAX_RATIO)
    for d in oracle_inputs + [workloads.oracle_probe()]:
        classes[workloads.datum_key(d)]["e"] = aqci.hilbert_samuel_table(d).e
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(classes.items())]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"classes": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"{len(classes)} classes -> {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
