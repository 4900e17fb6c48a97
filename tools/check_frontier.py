"""Check `aqci verify` reports against the pinned frontier in frontier.json.

Usage: python tools/check_frontier.py [--jobs N] [BUDGET ...]

Each BUDGET is a key of `tools/frontier.json` (all of them when none is
given).  For each, the script runs `python -m aqci verify --n-max N
--max-ratio R --jobs J --report PATH` into a temporary directory, with this
checkout's `src` first on the import path, and compares the sha256 of the
summary and of the records (`.jsonl`), the class count, the interval count
and the oracle skip rate with the pinned entry; the run must also end ALL
PASSED.  It prints one line per budget, and each value that differs next
to its pinned one.  When two of the budgets nest (n_max and max_ratio both
at most the other's), every record of the smaller report must also be
byte-equal to the record of the same datum in the larger one, with its
`index` field dropped; one line per such pair says how many are.  Exit
status: 0 when every budget and pair matches, 1 when one differs, 2 when a
run writes no report.  Standard library only.

A changed digest is a changed report: a change that moves one says why,
and the entry is re-taken from this script's output on that change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRONTIER = Path(__file__).with_name("frontier.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def records_by_datum(path: Path) -> dict[str, bytes]:
    """Each record line of a report with its `index` field dropped, keyed by its datum."""
    records = {}
    for line in path.read_bytes().splitlines():
        rec = json.loads(line)
        index = b'"index": %d, ' % rec["index"]
        records[json.dumps(rec["datum"], sort_keys=True)] = line.replace(index, b"", 1)
    return records


def nested_pairs(names: list[str], pinned: dict) -> list[tuple[str, str]]:
    """(smaller, larger) for every two of the budgets where one nests in the other."""
    def within(a, b):
        return all(pinned[a][k] <= pinned[b][k] for k in ("n_max", "max_ratio"))

    return [(a, b) for a in names for b in names if a != b and within(a, b)]


def observe(budget: dict, jobs: int, workdir: str) -> tuple[dict | str, float]:
    """The pinned values of one verify run, or its stderr if it wrote no report."""
    report = Path(workdir) / "report.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    command = [
        sys.executable, "-m", "aqci", "verify",
        "--n-max", str(budget["n_max"]), "--max-ratio", str(budget["max_ratio"]),
        "--jobs", str(jobs), "--report", str(report),
    ]
    start = time.perf_counter()
    run = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if not report.exists():
        return run.stderr.decode(errors="replace"), seconds
    summary = json.loads(report.read_text())
    return {
        "classes": summary["datum_count"],
        "intervals": summary["interval_results"],
        "skip_rate": summary["oracle_skip_rate"],
        "summary_sha256": sha256(report),
        "records_sha256": sha256(report.with_suffix(".jsonl")),
        "all_passed": run.returncode == 0 and summary["all_passed"],
        "records": records_by_datum(report.with_suffix(".jsonl")),
    }, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("budgets", nargs="*", metavar="BUDGET")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    pinned = json.loads(FRONTIER.read_text())
    unknown = [b for b in args.budgets if b not in pinned]
    if unknown:
        parser.error(f"unknown budget {unknown[0]!r}; known: {', '.join(pinned)}")
    status = 0
    names = args.budgets or list(pinned)
    records = {}
    for name in names:
        want = pinned[name]
        with tempfile.TemporaryDirectory() as workdir:
            got, seconds = observe(want, args.jobs, workdir)
        if isinstance(got, str):
            print(f"{name}: no report written ({seconds:.1f} s)\n{got}", end="")
            status = 2
            continue
        diffs = [
            f"  {key}: {got[key]!r}, pinned {want[key]!r}"
            for key in ("classes", "intervals", "skip_rate", "summary_sha256", "records_sha256")
            if got[key] != want[key]
        ]
        if not got["all_passed"]:
            diffs.append("  result: FAILURES FOUND, pinned ALL PASSED")
        print(f"{name}: {'differs' if diffs else 'matches'} ({seconds:.1f} s, --jobs {args.jobs})")
        print("\n".join(diffs), end="\n" if diffs else "")
        if diffs:
            status = max(status, 1)
        records[name] = got["records"]
    for small, large in nested_pairs([n for n in names if n in records], pinned):
        # The data whose record is missing from the larger report or differs there.
        differ = [key for key, line in records[small].items() if records[large].get(key) != line]
        count = len(records[small])
        if differ:
            print(f"{small} in {large}: {len(differ)} of {count} records differ, first {differ[0]}")
            status = max(status, 1)
        else:
            print(f"{small} in {large}: all {count} records match")
    return status


if __name__ == "__main__":
    sys.exit(main())
