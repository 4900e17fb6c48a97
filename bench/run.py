"""The aqci benchmark: one workload, timed from outside in fresh interpreters.

Usage:
  python3 bench/run.py --workload {verify-n4r2,sweep-n6r3,scale}
                       [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src`.  Each rep is a fresh interpreter (`bench/worker.py`), so
process-global caches start cold, as they do for every `aqci` command.  All
load of a timed rep comes from that one child; this process only waits for
it.  Children are pinned to the usable CPUs in turn.  On a shared host a
CPU's speed drifts, so every time is corrected by speed probes the child
takes every 50 ms (speed.py) and reported in reference seconds; the raw
medians are printed too.

--trace 0 runs reps until about --seconds have passed (at least MIN_REPS)
and reports the medians of the end-to-end metrics.  After each rep comes
SETUP_ROUNDS rounds of set-up-only children, one per CPU at once, so the
set-up median rests on five samples per rep.
--trace 1 alternates untraced and traced reps on the same CPU for about
--seconds (at least MIN_REPS pairs) and reports the median per-layer
metrics of the traced reps.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  Each run
also writes its samples and environment stamp to `.bench_out/` at the
checkout root.  Exit code 0 means the run completed (whether or not the
outputs were correct); any other code means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-n4r2", "sweep-n6r3", "scale")
MIN_REPS = 3
# Rounds of set-up-only children after each rep.  Set-up takes 0.1-0.6 s
# and only a few speed probes, so it needs more samples than the rep.
SETUP_ROUNDS = 2
# Every child must finish before this many seconds into the run have passed.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_sha(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, mode: str, out_dir: Path, deadline: float, cpus) -> list[dict]:
    """Run one child per CPU in `cpus` at once; return their results with `setup_s`.

    `setup_s` is from the spawn to the end of set-up in reference seconds,
    probes left out; `raw_setup_s` the same as measured.
    """
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"), workload, str(seed), mode, str(out_dir)]
    children = []
    try:
        for cpu in cpus:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                text=True,
                preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}),
            )
            children.append((proc, t_spawn))
        results = []
        for proc, t_spawn in children:
            try:
                out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} child of {workload} passed the {DEADLINE_S:.0f} s deadline") from exc
            if proc.returncode != 0:
                raise BenchError(f"{mode} child of {workload} exited with code {proc.returncode}")
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError) as exc:
                raise BenchError(f"{mode} child of {workload} printed no result") from exc
            result["raw_setup_s"] = result["born"] - t_spawn + result["setup_raw_s"]
            result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
            results.append(result)
        return results
    finally:
        for proc, _ in children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def measure(workload: str, seed: int, seconds: float, out_dir: Path, deadline: float):
    """Untraced reps and set-up rounds.

    Returns the end-to-end medians, the medians of the raw times, the rep
    results and the set-up-only children's results.
    """
    cpus = sorted(os.sched_getaffinity(0))
    reps: list[dict] = []
    setups: list[dict] = []
    rounds: list[float] = []
    begin = time.monotonic()
    # Stop at the round that ends nearest to `seconds`.
    while len(reps) < MIN_REPS or time.monotonic() - begin + statistics.median(rounds) / 2 <= seconds:
        t_round = time.monotonic()
        reps += spawn(workload, seed, "run", out_dir, deadline, [cpus[len(reps) % len(cpus)]])
        for _ in range(SETUP_ROUNDS):
            setups += spawn(workload, seed, "setup", out_dir, deadline, cpus)
        rounds.append(time.monotonic() - t_round)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s", len(reps)),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s", len(reps)),
        "setup_s": (statistics.median(r["setup_s"] for r in reps + setups), "s", len(reps + setups)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB", len(reps)),
    }
    raw = {
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
        "raw_cpu_s": statistics.median(r["raw_cpu_s"] for r in reps),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in reps + setups),
    }
    return metrics, raw, reps, setups


def traced(workload: str, seed: int, seconds: float, out_dir: Path, deadline: float):
    """Alternating untraced and traced reps.

    Returns the median per-layer metrics, the medians of the raw times and
    the rep results (no set-up-only children run).

    Each pair runs on one CPU, and pairs alternate between the CPUs, so
    `trace.overhead_share` compares the two medians under the same drifts.
    """
    cpus = sorted(os.sched_getaffinity(0))
    plain: list[dict] = []
    reps: list[dict] = []
    pairs: list[float] = []
    begin = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - begin + statistics.median(pairs) / 2 <= seconds:
        t_pair = time.monotonic()
        cpu = [cpus[len(reps) % len(cpus)]]
        plain += spawn(workload, seed, "run", out_dir, deadline, cpu)
        reps += spawn(workload, seed, "trace", out_dir, deadline, cpu)
        pairs.append(time.monotonic() - t_pair)
    metrics = {
        name: (statistics.median(r["layers"][name]["value"] for r in reps), m["unit"], len(reps))
        for name, m in reps[0]["layers"].items()
    }
    traced_wall = statistics.median(r["wall_s"] for r in reps)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_share"] = (traced_wall / plain_wall - 1.0, "share", len(reps))
    raw = {
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in plain),
        "raw_traced_wall_s": statistics.median(r["raw_wall_s"] for r in reps),
    }
    return metrics, raw, plain + reps, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aqci" / "__init__.py").is_file():
        print(f"bench: no aqci package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
        "loadavg_before": os.getloadavg(),
    }
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, raw, reps, setups = traced(args.workload, args.seed, args.seconds, out_dir, deadline)
        else:
            metrics, raw, reps, setups = measure(args.workload, args.seed, args.seconds, out_dir, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = os.getloadavg()

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for p in r["problems"]})
    print("env: " + json.dumps(env))
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (median of {count})")
    for name, value in raw.items():
        print(f"{args.workload} {name} = {value:.6g} s (as measured, not speed-corrected)")
    print(f"{args.workload} failed_share = {failed / attempted:.6g} share ({failed} of {attempted} items)")
    for problem in problems[:10]:
        print(f"problem: {problem}")

    record = {"env": env, "reps": reps, "setups": setups, "raw": raw, "metrics": {k: v[0] for k, v in metrics.items()}}
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
