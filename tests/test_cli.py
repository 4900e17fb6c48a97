"""Command-line interface: subcommands, exit codes, JSON output, report files."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqci import EnumerationBudget, OracleBudget, check_datum, enumerate_data, to_json, to_payload
from aqci.cli import main
from aqci.datum import exact_decimal, exact_json, format_fraction

from helpers import INTERVAL_FIXTURE, chain, star, two_stars

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star32.json"
    path.write_text(to_json(star(3, 2)) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair22.json"
    path.write_text(to_json(two_stars(2, 2)) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(to_json(INTERVAL_FIXTURE) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"n": 2, "sets": [{"elements": [1, 2], "weight": 1}, {"elements": [1], "weight": 2}]}',
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def garbage_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_valid_datum(star_file, capsys):
    assert main(["validate", star_file]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_reports_violations(invalid_file, capsys):
    assert main(["validate", invalid_file]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out
    assert "missing-singleton" in out


def test_validate_json_output(invalid_file, capsys):
    assert main(["validate", "--json", invalid_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["violations"][0]["kind"] == "missing-singleton"


def test_validate_missing_file_is_a_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_validate_unparsable_file(garbage_file, capsys):
    assert main(["validate", garbage_file]) == 1
    assert "cannot parse" in capsys.readouterr().err


@pytest.fixture
def default_int_digit_limit():
    """Pin the interpreter's default limit of 4,300 digits per int()."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def _assert_unparsable(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "cannot parse" in err
    assert "Traceback" not in err


def test_validate_deeply_nested_json_is_one_message(tmp_path, capsys):
    _assert_unparsable(tmp_path, capsys, "[" * 200_000 + "]" * 200_000)


def test_validate_overlong_integer_is_one_message(tmp_path, capsys, default_int_digit_limit):
    _assert_unparsable(tmp_path, capsys, '{"n": ' + "9" * 5000 + ', "sets": []}')


def test_exact_decimal_matches_unlimited_str():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    values = [0, 7, -7, 2**1990, 2**1991, -(3**5000)]
    values += [10**k + e for k in (599, 600, 601, 4299, 4300, 4301, 9000) for e in (-1, 0, 1)]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(x) for x in values]
    finally:
        sys.set_int_max_str_digits(old)
    assert [exact_decimal(x) for x in values] == expected


def test_big_exact_numbers_print_past_the_digit_limit(tmp_path, capsys, default_int_digit_limit):
    # Weights of 771 digits parse; |G| = 10^4620 and the power lower bound's
    # denominator are past the limit, and print exactly.
    d = chain(*[10**70] * 11)
    path = tmp_path / "chain-12.json"
    path.write_text(to_json(d) + "\n", encoding="utf-8")
    group = "1" + "0" * 4620
    assert format_fraction(10**4620) == group
    assert format_fraction(Fraction(-1, 10**4620)) == "-1/" + group
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"group order:          {group}  (lattice route: {group})" in out
    assert main(["info", "--json", str(path)]) == 0
    text = capsys.readouterr().out
    assert f'"group_order": {group},' in text
    assert f'"group_order_lattice": {group},' in text
    record = check_datum(d, OracleBudget(k_max=15, point_ceiling=1_000))
    bound = record["power_lower_bound"]
    assert f'"power_lower_bound": "{bound}"' in exact_json(record, sort_keys=True)
    sys.set_int_max_str_digits(0)  # the fixture restores the limit
    payload = json.loads(text)
    assert payload["group_order"] == payload["group_order_lattice"] == 10**4620
    power_lower = Fraction(12) ** 12 / (10**4620 * Fraction(payload["lct"]) ** 12)
    assert Fraction(bound) == power_lower


def test_validate_huge_n_is_one_quick_message(tmp_path, capsys):
    # Validation would list a missing singleton per element: 10^9 lines.
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000, "sets": [{"elements": [1], "weight": 1}]}', encoding="utf-8")
    start = time.perf_counter()
    assert main(["validate", str(path)]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "one singleton set per element" in captured.err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["lct", "--method", "nonsense", "x.json"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mult", "--method", "oracle", "--k-max", "0", "x.json"],
        ["mult", "--method", "oracle", "--point-ceiling", "-5", "x.json"],
        ["verify", "--n-max", "2", "--jobs", "0"],
        ["verify", "--n-max", "-1"],
        ["verify", "--n-max", "2", "--max-ratio", "0"],
        ["enumerate", "--n", "0"],
    ],
    ids=["k-max", "point-ceiling", "jobs", "n-max", "max-ratio", "enumerate-n"],
)
def test_non_positive_budget_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "9", "--max-ratio", "3"],
        ["enumerate", "--n", "9"],
        ["enumerate", "--n", "1000000000"],
        ["enumerate", "--n", "1000000000", "--max-ratio", "1"],
        ["enumerate", "--n", "5", "--class-ceiling", "192"],
    ],
    ids=["verify-n9", "enumerate-n9", "enumerate-huge-n", "ratio-1-huge-n", "one-past"],
)
def test_oversized_enumeration_budget_is_refused_at_once(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "(--class-ceiling)" in captured.err


def test_class_ceiling_admits_a_budget_at_its_count(capsys):
    assert main(["enumerate", "--n", "5", "--class-ceiling", "193"]) == 0
    assert capsys.readouterr().err == "total: 193 classes\n"


def test_mult_oracle_refuses_a_budget_that_cannot_stabilize(star_file, capsys):
    # star(3, 2) has n = 3: the third differences of 5 colengths are only two.
    assert main(["mult", "--method", "oracle", "--k-max", "5", star_file]) == 2
    captured = capsys.readouterr()
    assert "n + 3 = 6" in captured.err
    assert captured.out == ""
    assert main(["mult", "--method", "oracle", "--k-max", "6", "--json", star_file]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["e"] == 2
    assert main(["mult", "--method", "bounds", "--k-max", "1", star_file]) == 0


def test_verify_refuses_a_budget_that_cannot_stabilize(tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["verify", "--n-max", "3", "--max-ratio", "2", "--k-max", "5", "--report", str(report)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "n + 3 = 6" in captured.err
    assert "ALL PASSED" not in captured.out
    assert not report.exists()


# ---------------------------------------------------------------------------
# info


SHARED_FIELDS = (
    "n", "emb", "connected", "lct", "ceil_lct", "group_order", "group_order_lattice",
    "branching_product", "lower_bound", "upper_bound", "closure_power",
)


def test_info_and_the_verify_record_share_their_fields(tmp_path, capsys):
    path = tmp_path / "d.json"
    oracle = OracleBudget(k_max=7, point_ceiling=1_000)  # the shared fields never read it
    data = list(enumerate_data(EnumerationBudget(4, 3)))
    assert len(data) == 49
    for d in data:
        path.write_text(to_json(d) + "\n", encoding="utf-8")
        assert main(["info", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        record = json.loads(exact_json(check_datum(d, oracle)))
        assert {k: payload[k] for k in SHARED_FIELDS} == {k: record[k] for k in SHARED_FIELDS}


def test_info_human_readable(star_file, capsys):
    assert main(["info", star_file]) == 0
    out = capsys.readouterr().out
    assert "embedding dimension:  4" in out
    assert "lct:                  3/2" in out
    assert "multiplicity:         2 (exact)" in out
    assert "closure power:        2" in out


def test_info_json(star_file, capsys):
    assert main(["info", "--json", star_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert payload["emb"] == 4
    assert payload["lct"] == "3/2"
    assert payload["group_order"] == payload["group_order_lattice"] == 4
    assert payload["multiplicity"]["value"] == 2
    assert payload["closure_power"] == 2


def test_info_prints_an_interval(interval_file, capsys):
    assert main(["info", interval_file]) == 0
    out = capsys.readouterr().out
    assert "multiplicity:         within [5, 6]\n" in out
    assert "bound envelope:       [5, 6]\n" in out
    assert "closure power:        none\n" in out
    assert main(["info", "--json", interval_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    interval = {"status": "interval", "value": None, "lower": "5", "upper": "6"}
    assert payload["multiplicity"] == interval
    assert (payload["lower_bound"], payload["upper_bound"]) == ("5", "6")
    assert payload["closure_power"] is None


def test_info_rejects_invalid_datum(invalid_file, capsys):
    assert main(["info", invalid_file]) == 1
    assert "missing-singleton" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# lct


def test_lct_both_routes_agree(star_file, capsys):
    assert main(["lct", star_file]) == 0
    out = capsys.readouterr().out
    assert "recursion: 3/2" in out
    assert "lp: 3/2" in out


def test_lct_single_route_and_json(pair_file, capsys):
    assert main(["lct", "--method", "recursion", "--json", pair_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"recursion": "2"}
    assert main(["lct", "--method", "both", "--json", pair_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"recursion": "2", "lp": "2", "agree": True}


def test_lct_route_mismatch(star_file, capsys, monkeypatch):
    monkeypatch.setattr("aqci.cli.lct_lp", lambda ideal: Fraction(7, 5))
    assert main(["lct", star_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == "recursion: 3/2\nlp: 7/5\n"
    assert captured.err == "MISMATCH between the two routes\n"
    assert main(["lct", "--json", star_file]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"recursion": "3/2", "lp": "7/5", "agree": False}
    assert captured.err == ""


# ---------------------------------------------------------------------------
# mult


def test_mult_auto(star_file, capsys):
    assert main(["mult", star_file]) == 0
    out = capsys.readouterr().out
    assert "multiplicity: 2 (exact)" in out
    assert "bound envelope: [2, 2]" in out
    assert "reduce-equality" in out


def test_mult_prints_an_interval(interval_file, capsys):
    assert main(["mult", interval_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["multiplicity: within [5, 6]", "bound envelope: [5, 6]"]
    assert lines[2].startswith("trace: interval-bounds, ")
    assert len(lines) == 3
    assert main(["mult", "--json", interval_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["lower_bound"], payload["upper_bound"]) == ("5", "6")
    result = payload["multiplicity"]
    assert (result["status"], result["value"], result["lower"], result["upper"]) == (
        "interval", None, "5", "6"
    )
    assert result["trace"][0]["rule"] == "interval-bounds"


def test_mult_oracle(star_file, capsys):
    assert main(["mult", "--method", "oracle", "--json", star_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["stabilized"] is True
    assert payload["oracle"]["e"] == 2
    assert payload["oracle"]["values"][:4] == [1, 5, 14, 30]


def test_mult_oracle_budget_abort(star_file, capsys):
    assert main(["mult", "--method", "oracle", "--point-ceiling", "3", star_file]) == 0
    out = capsys.readouterr().out
    assert "aborted" in out


def test_mult_oracle_huge_k_max_aborts_at_the_ceiling(pair_file, capsys):
    argv = ["mult", "--method", "oracle", "--k-max", "10000000", "--point-ceiling", "1000"]
    assert main([*argv, pair_file]) == 0
    out = capsys.readouterr().out
    assert "oracle: aborted, a table would exceed the point ceiling of 1000" in out


def test_mult_bounds_only(pair_file, capsys):
    assert main(["mult", "--method", "bounds", "--json", pair_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] == "4"
    assert payload["upper_bound"] == "4"
    assert "multiplicity" not in payload


# ---------------------------------------------------------------------------
# closure


def test_closure(star_file, pair_file, tmp_path, capsys):
    assert main(["closure", star_file]) == 0
    assert "closure power: 2" in capsys.readouterr().out
    no_power = tmp_path / "star34.json"
    no_power.write_text(to_json(star(3, 4)), encoding="utf-8")
    assert main(["closure", "--json", str(no_power)]) == 0
    assert json.loads(capsys.readouterr().out) == {"closure_power": None}
    big = tmp_path / "star1212.json"
    big.write_text(to_json(star(12, 12)), encoding="utf-8")
    assert main(["closure", str(big)]) == 0
    assert "closure power: 12" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# dot


def test_dot_output(star_file, capsys):
    assert main(["dot", star_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("->") == 3


# ---------------------------------------------------------------------------
# Hostile input to the single-datum commands


_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.text(max_size=2), st.floats(width=16)
)
_well_formed = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 4),
        "sets": st.lists(
            st.fixed_dictionaries(
                {
                    "elements": st.lists(st.integers(-1, 4), min_size=1, max_size=4, unique=True),
                    "weight": st.integers(-1, 6),
                }
            ),
            max_size=7,
        ),
    }
)
_payloads = st.one_of(
    st.sampled_from([to_payload(d) for d in enumerate_data(EnumerationBudget(3, 3))]),
    _well_formed,
    st.dictionaries(
        st.sampled_from(["n", "sets", "other"]),
        st.one_of(_junk, st.lists(st.one_of(_junk, st.dictionaries(_junk, _junk)), max_size=3)),
        max_size=3,
    ),
    _junk,
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "datum.json"


def _run_quietly(argv):
    """main's exit code and stdout, with stderr swallowed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=_payloads)
def test_single_datum_commands_exit_cleanly_on_any_payload(fuzz_file, payload):
    # An exception out of main would be a traceback on the command line.
    fuzz_file.write_text(json.dumps(payload), encoding="utf-8")
    for command in ("validate", "info", "lct", "mult", "closure", "dot"):
        code, _ = _run_quietly([command, str(fuzz_file)])
        assert code in (0, 1, 2), (command, payload)
        if command == "dot":
            continue
        json_code, out = _run_quietly([command, "--json", str(fuzz_file)])
        assert json_code == code, (command, payload)
        if out:
            json.loads(out)  # exactly one JSON document, or an error


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_human_lines(capsys):
    assert main(["enumerate", "--n", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "n=1  {1}:1"
    assert "total: 4 classes" in captured.err


def test_enumerate_jsonl_round_trips(capsys):
    assert main(["enumerate", "--n", "3", "--max-ratio", "2", "--jsonl"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 7  # 1 + 2 + 4 classes for ratios up to 2
    from aqci import from_json, validate

    for line in lines:
        assert validate(from_json(line)).ok


def _aqci_process(*argv):
    # Block-buffered stdout, as on a pipe by default.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen(
        [sys.executable, "-m", "aqci", *argv],
        env={**env, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _close_stdout_and_wait(proc):
    """Close the reader's end of proc's stdout; return (exit code, stderr)."""
    try:
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), err
    finally:
        proc.kill()
        proc.wait()


def test_closed_stdout_exits_one_without_a_traceback():
    # n <= 7 gives 3,859 lines, more than a pipe buffer holds, so the writer
    # meets the closed pipe while it prints.
    proc = _aqci_process("enumerate", "--n", "7")
    assert proc.stdout.readline() == "n=1  {1}:1\n"
    code, err = _close_stdout_and_wait(proc)
    assert code == 1
    assert "Traceback" not in err and "Error" not in err, err


def test_stdout_closed_before_any_output_exits_one_without_an_error():
    # Four lines sit in the output buffer until the final flush, long after
    # the reader has gone.
    code, err = _close_stdout_and_wait(_aqci_process("enumerate", "--n", "2"))
    assert code == 1
    assert "Error" not in err, err
    assert err == "total: 4 classes\n"


# What importing the package must not load: the process pool's modules
# (only `verify --jobs` > 1 uses the pool), `typing`, `dataclasses` and the
# `inspect` it imports (the records are plain slotted classes), and
# `argparse` (loaded when the CLI parses a command line).
UNNEEDED = [
    "concurrent.futures.process", "multiprocessing", "socket", "pickle", "typing",
    "dataclasses", "inspect", "argparse",
]


def _stdlib_imports():
    """What the package's modules import at their top level: not itself, nor UNNEEDED."""
    names = set()
    for path in (SRC / "aqci").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    skip = {"aqci", "__future__", *UNNEEDED}
    return sorted(n for n in names if n not in skip and n.split(".")[0] not in skip)


def test_import_leaves_the_worker_pool_and_typing_unloaded():
    # Every aqci command starts a fresh interpreter.  What the standard
    # library loads for the package's other imports is not counted.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        f"for name in {_stdlib_imports()!r}: __import__(name)\n"
        "before = set(sys.modules)\n"
        "import aqci, aqci.cli\n"
        f"print(' '.join(m for m in {UNNEEDED!r} if m in sys.modules and m not in before))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails"
)


@needs_dev_full
@pytest.mark.parametrize(
    "argv", [("enumerate", "--n", "2"), ("verify", "--n-max", "2", "--max-ratio", "2")]
)
def test_unwritable_stdout_exits_one_with_one_line(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "aqci", *argv],
            env={**env, "PYTHONPATH": str(SRC)},
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr, proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("aqci:")]
    assert lines == ["aqci: cannot write output: [Errno 28] No space left on device"]


# ---------------------------------------------------------------------------
# verify


def test_verify_small_budget(capsys):
    assert main(["verify", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "datum classes: 4" in out
    assert "ALL PASSED" in out
    assert "grid ceiling_power: 583 points, 5 equalities, 0 failures" in out


def test_verify_writes_reports(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--n-max", "2", "--report", str(report)]) == 0
    capsys.readouterr()
    summary = json.loads(report.read_text(encoding="utf-8"))
    assert summary["datum_count"] == 4
    assert summary["all_passed"] is True
    records_path = tmp_path / "report.jsonl"
    records = [json.loads(line) for line in records_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 4
    assert [r["index"] for r in records] == [0, 1, 2, 3]


def test_verify_unwritable_report_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran before the report path was checked")

    monkeypatch.setattr("aqci.cli.run_suite", no_run)
    report = tmp_path / "missing" / "r.json"
    assert main(["verify", "--n-max", "2", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert "cannot write report" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@needs_dev_full
@pytest.mark.parametrize("full", ["r.json", "r.jsonl"])
def test_verify_failed_report_write_is_a_usage_error(tmp_path, capsys, full):
    # Opening /dev/full succeeds, so the check before the run passes; the
    # write after it fails.
    (tmp_path / full).symlink_to("/dev/full")
    report = tmp_path / "r.json"
    assert main(["verify", "--n-max", "2", "--max-ratio", "2", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "aqci: cannot write report: [Errno 28] No space left on device\n"
    assert captured.out == ""
    # The other report file did not exist before, so it is removed again.
    assert [p.name for p in tmp_path.iterdir()] == [full]
    assert os.readlink(tmp_path / full) == "/dev/full"


def test_verify_failed_run_keeps_the_previous_report(tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("aqci.cli.run_suite", failing_run)
    report = tmp_path / "r.json"
    report.write_text("old summary", encoding="utf-8")
    (tmp_path / "r.jsonl").write_text("old records", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--n-max", "2", "--report", str(report)])
    assert report.read_text(encoding="utf-8") == "old summary"
    assert (tmp_path / "r.jsonl").read_text(encoding="utf-8") == "old records"


def test_verify_failed_check_removes_the_summary_it_created(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the suite ran before the report path was checked")

    monkeypatch.setattr("aqci.cli.run_suite", no_run)
    (tmp_path / "r.jsonl").mkdir()  # the append-open of the records path fails
    assert main(["verify", "--n-max", "2", "--report", str(tmp_path / "r.json")]) == 2
    assert "cannot write report" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["r.jsonl"]


@pytest.mark.parametrize("old", [(), ("r.json",), ("r.jsonl",)], ids=["none", "summary", "records"])
def test_verify_failed_run_removes_only_the_files_it_created(tmp_path, monkeypatch, old):
    def failing_run(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("aqci.cli.run_suite", failing_run)
    for name in old:
        (tmp_path / name).write_text("old", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--n-max", "2", "--report", str(tmp_path / "r.json")])
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == {
        name: "old" for name in old
    }


def test_verify_report_files_are_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--n-max", "2", "--report", str(a)]) == 0
    assert main(["verify", "--n-max", "2", "--report", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
