"""One rep of one workload, in a fresh interpreter started by run.py.

Usage: python3 -I bench/worker.py WORKLOAD SEED MODE OUT_DIR

MODE is `setup` (build the inputs and stop), `run` (timed section, then the
output check) or `trace` (the same with spans, which are written to OUT_DIR).
The last line of standard output is one JSON object.  `born` is when the
speedometer (speed.py) was made, a `time.monotonic()` reading, which shares
one clock with the parent process; `setup_raw_s` is the set-up time after
that, and `setup_scale` turns raw set-up seconds into reference seconds.  The timed section's
`wall_s` and `cpu_s` are in reference seconds, `raw_wall_s` and
`raw_cpu_s` as measured; all leave out the probes.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, mode, out_dir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    sys.path[:0] = [str(SRC), str(BENCH)]
    import speed

    meter = speed.Speedometer()
    import aqci

    if not Path(aqci.__file__).resolve().is_relative_to(SRC):
        print(f"aqci imported from {aqci.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer().install() if mode == "trace" else None
    if tracer:
        meter.on_probe = tracer.probe
    inputs = workloads.setup(workload, seed)
    t_start = meter.start()
    if tracer:
        tracer.start_timed(t_start)
    setup = meter.totals(meter.setup_segments)
    result = {
        "born": meter.born,
        "setup_raw_s": setup["raw_wall_s"],
        "setup_scale": setup["wall_s"] / setup["raw_wall_s"],
    }
    if mode == "setup":
        meter.stop()
        print(json.dumps(result))
        return 0

    outputs = workloads.execute(workload, inputs, out_dir, tracer and tracer.mark)
    t_end = meter.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result.update(meter.totals(meter.segments), peak_rss_mb=peak_kb / 1024)
    if tracer:
        tracer.uninstall()
        scale = result["wall_s"] / result["raw_wall_s"]
        result["layers"] = tracer.layer_metrics(t_end, workloads.datum_key, scale)
        tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl.gz")
    attempted, failed, problems = workloads.check(workload, inputs, outputs, workloads.load_reference())
    result.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
