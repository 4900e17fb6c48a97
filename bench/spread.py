"""Run the benchmark over several seeds and report each metric's spread.

Usage:
  python3 bench/spread.py [--workloads W ...] [--seeds 1-10] [--out FILE]

Each run is untraced and measures `run_seconds` from BENCHMARK.json, as the
bounds assume.  For every workload and end-to-end metric it prints the
median over seeds and the spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.  A
stable benchmark keeps every spread well inside the metric's bound in
BENCHMARK.json.  --out writes the medians, spreads and raw values as JSON,
which is how baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f" (bound {bound}, {'ok' if spread < bound / 3 else 'WIDE'})"
            print(f"  {workload} {name}: median {median:.6g} spread {spread:.4f}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "seconds": spec["run_seconds"], "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
