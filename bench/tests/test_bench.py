"""Tests of the benchmark itself: run with `python3 -m pytest bench/tests -q`."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import aqci  # noqa: E402
import aqci.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def small():
    """The swept classes with n <= 4, relabeled, with a reference restricted to them."""
    rng = random.Random(7)
    data = [
        workloads.relabel(d, rng)
        for d in workloads.enumerated_classes(4, 3)
        if workloads.in_sweep(workloads.datum_key(d))
    ]
    full = workloads.load_reference()["classes"]
    return data, {"classes": {workloads.datum_key(d): full[workloads.datum_key(d)] for d in data}}


def test_benchmark_json_metric_names_are_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert tuple(names) == workloads.WORKLOADS == run.WORKLOADS
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS


def test_class_key_is_label_invariant_and_separates_classes(reference):
    classes = workloads.enumerated_classes()
    keys = [workloads.datum_key(d) for d in classes]
    assert len(set(keys)) == len(classes) == len(reference["classes"]) - len(workloads.probes())
    assert len([k for k in keys if workloads.in_sweep(k)]) == 211
    d = workloads.chain(2, 3, 2)
    assert workloads.datum_key(aqci.apply_permutation(d, (3, 1, 4, 2))) == workloads.datum_key(d)


def test_seed_fixes_inputs():
    assert workloads.setup("sweep-n6r3", 5) == workloads.setup("sweep-n6r3", 5)
    assert workloads.setup("sweep-n6r3", 5) != workloads.setup("sweep-n6r3", 6)


def test_corrupted_reference_fails_items(small):
    data, ref = small
    outputs = workloads.execute("sweep-n6r3", data, ROOT)
    assert workloads.check("sweep-n6r3", data, outputs, ref)[:2] == (len(data), 0)

    bad = copy.deepcopy(ref)
    key = workloads.datum_key(data[-1])
    bad["classes"][key]["lct"] = "7/5"
    attempted, failed, problems = workloads.check("sweep-n6r3", data, outputs, bad)
    assert failed == 1 and failed / attempted > 0
    assert problems and "lct" in problems[0]


def test_verify_check_reads_the_report_and_fails_corrupted_classes(tmp_path, reference):
    report = tmp_path / "verify.json"
    argv = ["verify", "--n-max", "3", "--max-ratio", "2", "--report", str(report)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert aqci.cli.main(argv) == 0
    files = {path: path.read_text() for path in (report, report.with_suffix(".jsonl"))}
    keys = [
        workloads.class_key((s["elements"], s["weight"]) for s in json.loads(line)["datum"]["sets"])
        for line in files[report.with_suffix(".jsonl")].splitlines()
    ]
    ref = {"classes": {k: reference["classes"][k] for k in keys}}

    def check(ref):
        for path, text in files.items():  # check() deletes the report
            path.write_text(text)
        return workloads.check("verify-n4r2", None, {"exit": 0, "report": report}, ref)

    assert check(ref)[:2] == (len(keys) + 2, 0)
    for field, value in (("e", 99), ("lct", "7/5")):
        bad = copy.deepcopy(ref)
        bad["classes"][keys[-1]][field] = value
        attempted, failed, problems = check(bad)
        assert (attempted, failed) == (len(keys) + 2, 1)
        assert problems[0].startswith(keys[-1]) and (field if field == "lct" else "oracle e") in problems[0]


def test_scale_inputs_are_relabeled_probes_and_the_oracle_is_checked(reference):
    inputs = workloads.setup("scale", 3)
    keys = [workloads.datum_key(d) for d in inputs]
    assert keys == [workloads.datum_key(d) for d in workloads.probes() + [workloads.oracle_probe()]]
    assert inputs != workloads.setup("scale", 4)
    ref = reference["classes"][keys[-1]]
    good = {"e": ref["e"], "stabilized": True, "aborted": False}
    assert workloads.oracle_problems(good, ref) == []
    assert "oracle e" in workloads.oracle_problems({**good, "e": ref["e"] + 1}, ref)[0]
    assert workloads.oracle_problems({**good, "stabilized": False}, ref)


def test_multiplicity_consistency_accepts_only_tighter_results():
    ref = {"status": "interval", "value": None, "lower": "2", "upper": "4"}
    exact = {"status": "exact", "value": 3, "lower": "3", "upper": "3"}
    assert workloads.multiplicity_consistent(exact, ref)
    assert workloads.multiplicity_consistent({**ref, "lower": "3"}, ref)
    assert not workloads.multiplicity_consistent({**exact, "value": 5}, ref)
    assert not workloads.multiplicity_consistent({**ref, "upper": "5"}, ref)
    assert workloads.multiplicity_consistent(exact, exact)
    assert not workloads.multiplicity_consistent(ref, exact)


def test_traced_and_untraced_runs_check_the_same_values(small):
    data, ref = small
    plain = workloads.execute("sweep-n6r3", data, ROOT)
    tracer = spans.Tracer().install()
    try:
        assert hasattr(aqci.lct_datum, "__wrapped__")
        tracer.start_timed(time.monotonic())
        traced = workloads.execute("sweep-n6r3", data, ROOT, tracer.mark)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert workloads.check("sweep-n6r3", data, traced, ref)[:2] == (len(data), 0)
    assert not hasattr(aqci.lct_datum, "__wrapped__")
    layers = tracer.layer_metrics(tracer.spans[-1][2], workloads.datum_key)
    assert set(layers) == set(spans.LAYER_METRICS) - {"trace.overhead_share"}
    assert layers["lp.solve_min.calls"]["value"] > 0
    assert layers["datum.children.calls"]["value"] > 0
    assert {s[4] for s in tracer.spans} == set(range(len(data)))


def test_setup_spans_stay_out_of_the_timed_metrics():
    tracer = spans.Tracer().install()
    try:
        data = workloads.enumerated_classes(3, 2)
        workloads.structural_values(workloads.chain(2, 2, 2))
        aqci.hilbert_samuel_table(workloads.chain(2, 2))
        tracer.start_timed(time.monotonic())
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(time.monotonic(), workloads.datum_key)
    assert data and layers.pop("enumeration.enumerate_data.s")["value"] > 0
    assert layers.pop("trace.uncovered_share")["value"] == 1.0
    assert {name: m["value"] for name, m in layers.items()} == dict.fromkeys(layers, 0)


def test_speedometer_scales_each_segment_by_its_probes():
    slow = (2 * speed.REFERENCE_PROBE_S, 2 * speed.REFERENCE_PROBE_S)
    fast = (speed.REFERENCE_PROBE_S, speed.REFERENCE_PROBE_S)
    totals = speed.Speedometer.totals([(1.0, 0.5, slow, slow), (1.0, 1.0, fast, fast)])
    assert totals == {"wall_s": 1.5, "cpu_s": 1.25, "raw_wall_s": 2.0, "raw_cpu_s": 1.5}


def test_speedometer_probes_while_busy_and_stops():
    meter = speed.Speedometer()
    try:
        t_start = meter.start()
        while time.monotonic() - t_start < 6 * speed.SEGMENT_S:
            sum(range(1000))
    finally:
        t_end = meter.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.segments) >= 4
    totals = meter.totals(meter.segments)
    # The probes are left out of the raw time.
    assert 0 < totals["raw_wall_s"] < t_end - t_start
    assert totals["wall_s"] > 0 and totals["cpu_s"] > 0


def test_probes_stay_out_of_layer_times():
    tracer = spans.Tracer()
    tracer.start_timed(100.0)
    tracer.spans = [
        ("lct.lct_datum", 101.0, 103.0, -1, None, False),
        ("datum.signature", 101.25, 102.25, 0, None, False),
    ]
    tracer.probes = [(101.5, 102.0, 1), (104.0, 104.5, -1), (99.0, 99.5, -1)]
    layers = tracer.layer_metrics(110.0, workloads.datum_key)
    assert layers["datum.signature.s"]["value"] == 0.5
    assert layers["lct.lct_datum.self_s"]["value"] == 1.0
    # 1.5 s covered by spans out of 10 s less 1 s of probes in the section.
    assert layers["trace.uncovered_share"]["value"] == 1.0 - 1.5 / 9.0


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "sweep-n6r3"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
