"""Command-line interface.

One datum file (the documented JSON shape) is the single input format.
Subcommands either inspect one datum (validate, info, lct, mult, closure,
dot) or sweep an enumeration budget (enumerate, verify).  Exit codes:
0 success / all checks passed, 1 validation failure or any check failure
(or a closed or unwritable stdout), 2 usage errors (including unreadable
files and unwritable reports).
Diagnostics go to stderr; with --json the primary stream carries only JSON.
"""

from __future__ import annotations

import contextlib
import os
import sys

from .datum import (
    DatumFormatError,
    exact_decimal,
    exact_json,
    format_fraction,
    from_json,
    monomial_ideal,
    to_dot,
    to_json,
    validate,
)
from .enumeration import DEFAULT_MAX_RATIO, EnumerationBudget, class_count, enumerate_data
from .invariants import summarize
from .lct import find_closure_power, lct_datum, lct_lp
from .multiplicity import (
    DEFAULT_K_MAX,
    DEFAULT_POINT_CEILING,
    STABLE_RUN,
    OracleBudget,
    hilbert_samuel_table,
    multiplicity,
    result_payload,
    table_payload,
)
from .verify import invariant_fields, run_suite

__all__ = ["main"]


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise _CliError(2, f"no such file: {path}") from None
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc}") from None
    try:
        return from_json(text)
    except DatumFormatError as exc:
        raise _CliError(1, f"cannot parse datum file {path}: {exc}") from None


def _violation_lines(report) -> list[str]:
    return [f"  [{v.kind}] {v.message}" for v in report.violations]


def _load_valid(path: str):
    d = _load(path)
    report = validate(d)
    if not report.ok:
        raise _CliError(1, f"invalid datum {path}:\n" + "\n".join(_violation_lines(report)))
    return d


def _oracle_budget(args, n: int) -> OracleBudget:
    """The oracle budget of the flags, refused if it can never stabilize at dimension n."""
    if args.k_max < n + STABLE_RUN:
        raise _CliError(
            2, f"--k-max {args.k_max} can never stabilize the oracle in dimension {n}: "
            f"it needs at least n + {STABLE_RUN} = {n + STABLE_RUN}"
        )
    return OracleBudget(k_max=args.k_max, point_ceiling=args.point_ceiling)


CLASS_CEILING = 20_000


def _enumeration_budget(args, n_max: int) -> EnumerationBudget:
    """The budget of the flags, refused if it holds more than --class-ceiling classes."""
    budget = EnumerationBudget(n_max, args.max_ratio)
    if class_count(budget, args.class_ceiling) > args.class_ceiling:
        raise _CliError(
            2, f"the budget n <= {n_max}, ratio <= {args.max_ratio} holds more than "
            f"{args.class_ceiling} classes (--class-ceiling)"
        )
    return budget


def _structural_text(result) -> str:
    """The structural multiplicity as `info` and `mult` print it."""
    if result.is_exact:
        return f"{exact_decimal(result.value)} (exact)"
    return f"within [{exact_decimal(result.lower)}, {exact_decimal(result.upper)}]"


def _member_values(pairs) -> list[dict]:
    return [{"member": list(j), "value": format_fraction(v)} for j, v in pairs]


class _Stderr(str):
    """A text-mode line that `main` prints to stderr instead of stdout."""


# Each single-datum command returns (exit code, JSON payload, text lines);
# `main` prints the payload under --json and the lines otherwise.


def _cmd_validate(args) -> tuple[int, dict, list[str]]:
    report = validate(_load(args.file))
    payload = {
        "valid": report.ok,
        "violations": [
            {"kind": v.kind, "message": v.message, "members": [list(m) for m in v.members]}
            for v in report.violations
        ],
    }
    lines = ["valid"] if report.ok else ["invalid:", *_violation_lines(report)]
    return (0 if report.ok else 1), payload, lines


def _cmd_info(args) -> tuple[int, dict, list[str]]:
    d = _load_valid(args.file)
    s = summarize(d)
    result = multiplicity(d)
    closure_q = find_closure_power(d)
    payload = {
        **invariant_fields(d, s, result, closure_q),
        "child_counts": [{"member": list(j), "count": c} for j, c in s.child_counts],
        "floor_factors": _member_values(s.floor_factors),
        "child_weight_factors": _member_values(s.child_weight_factors),
        "multiplicity": {k: v for k, v in result_payload(result).items() if k != "trace"},
    }
    lower, upper = payload["lower_bound"], payload["upper_bound"]
    lines = [
        f"n:                    {s.n}",
        f"embedding dimension:  {s.emb}",
        f"connected:            {'yes' if payload['connected'] else 'no'}",
        f"lct:                  {payload['lct']}  (ceiling {s.ceil_lct})",
        f"group order:          {exact_decimal(s.group_order)}"
        f"  (lattice route: {exact_decimal(s.group_order_lattice)})",
        f"branching product:    {exact_decimal(s.branching_product)}",
        f"multiplicity:         {_structural_text(result)}",
        f"bound envelope:       [{lower}, {upper}]",
        f"closure power:        {closure_q if closure_q is not None else 'none'}",
    ]
    return 0, payload, lines


def _cmd_lct(args) -> tuple[int, dict, list[str]]:
    d = _load_valid(args.file)
    values: dict = {}
    if args.method in ("recursion", "both"):
        values["recursion"] = format_fraction(lct_datum(d))
    if args.method in ("lp", "both"):
        values["lp"] = format_fraction(lct_lp(monomial_ideal(d)))
    lines = [f"{k}: {v}" for k, v in values.items()]
    agree = len(set(values.values())) == 1
    if args.method == "both":
        values["agree"] = agree
        if not agree:
            lines.append(_Stderr("MISMATCH between the two routes"))
    return (0 if agree else 1), values, lines


def _cmd_mult(args) -> tuple[int, dict, list[str]]:
    d = _load_valid(args.file)
    payload: dict = {"method": args.method}
    if args.method == "oracle":
        table = hilbert_samuel_table(d, _oracle_budget(args, d.n))
        payload["oracle"] = table_payload(table)
        if table.aborted:
            ceiling = exact_decimal(args.point_ceiling)
            line = f"oracle: aborted, a table would exceed the point ceiling of {ceiling}"
            return 0, payload, [line]
        if table.stabilized:
            verdict = f"multiplicity: {exact_decimal(table.e)} (differences stabilized)"
        else:
            verdict = "multiplicity: not stabilized within budget"
        return 0, payload, ["colengths: " + " ".join(map(exact_decimal, table.values)), verdict]
    result = multiplicity(d)
    payload["lower_bound"] = lower = exact_decimal(result.lower)
    payload["upper_bound"] = upper = exact_decimal(result.upper)
    lines = [f"bound envelope: [{lower}, {upper}]"]
    if args.method == "auto":
        payload["multiplicity"] = result_payload(result)
        trace = "trace: " + ", ".join(s.rule for s in result.trace)
        lines = [f"multiplicity: {_structural_text(result)}", *lines, trace]
    return 0, payload, lines


def _cmd_closure(args) -> tuple[int, dict, list[str]]:
    q = find_closure_power(_load_valid(args.file))
    return 0, {"closure_power": q}, [f"closure power: {q if q is not None else 'none'}"]


def _cmd_dot(args) -> int:
    d = _load_valid(args.file)
    sys.stdout.write(to_dot(d))
    return 0


def _cmd_enumerate(args) -> int:
    count = 0
    for d in enumerate_data(_enumeration_budget(args, args.n)):
        if args.jsonl:
            print(to_json(d))
        else:
            parts = " ".join(
                "{" + ",".join(str(e) for e in m.elements) + "}:" + str(m.weight)
                for m in d.members
            )
            print(f"n={d.n}  {parts}")
        count += 1
    print(f"total: {count} classes", file=sys.stderr)
    return 0


def _write_report(paths, texts, mode: str) -> None:
    try:
        for path, text in zip(paths, texts):
            with open(path, mode, encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise _CliError(2, f"cannot write report: {exc}") from None


def _cmd_verify(args) -> int:
    oracle = _oracle_budget(args, args.n_max)
    budget = _enumeration_budget(args, args.n_max)
    paths: tuple[str, ...] = ()
    if args.report:
        base = args.report
        paths = (base, base[:-5] + ".jsonl" if base.endswith(".json") else base + ".jsonl")
    # Opening to append checks both paths before the run, so a bad path
    # fails at once.  If the check, the run or a write fails, the paths that
    # did not exist before are removed again; a report already there is
    # never removed, and a failed check or run leaves it as it was.
    created = [path for path in paths if not os.path.lexists(path)]
    try:
        _write_report(paths, ("", ""), "a")
        report = run_suite(budget, oracle, args.jobs)
        _write_report(paths, (report.summary_json(), report.records_jsonl()), "w")
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise
    if paths:
        print(f"report written to {paths[0]} and {paths[1]}", file=sys.stderr)
    summary = report.summary
    print(f"datum classes: {summary['datum_count']}")
    for cid, tally in summary["checks"].items():
        print(
            f"  {cid:<4} pass {tally['pass']:<5} fail {tally['fail']:<5} skip {tally['skip']}"
        )
    print(
        f"oracle: stabilized {summary['oracle_stabilized']}/{summary['datum_count']}"
        f" (skip rate {summary['oracle_skip_rate']})"
    )
    for name, grid in summary["grids"].items():
        print(
            f"grid {name}: {grid['points']} points, {grid['equality_points']} equalities,"
            f" {len(grid['failures'])} failures"
        )
    print("result: " + ("ALL PASSED" if summary["all_passed"] else "FAILURES FOUND"))
    return 0 if summary["all_passed"] else 1


def _positive_int(text: str) -> int:
    import argparse

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-ratio", type=_positive_int, default=DEFAULT_MAX_RATIO)
    p.add_argument("--class-ceiling", type=_positive_int, default=CLASS_CEILING)


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-max", type=_positive_int, default=DEFAULT_K_MAX)
    p.add_argument("--point-ceiling", type=_positive_int, default=DEFAULT_POINT_CEILING)


def _datum_command(sub, name: str, fn, help: str, methods=(), default=None, oracle=False):
    """A single-datum command: the datum file, --method and the oracle flags
    where it has them, then --json."""
    p = sub.add_parser(name, help=help)
    p.add_argument("file")
    if methods:
        p.add_argument("--method", choices=methods, default=default)
    if oracle:
        _add_oracle_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=fn)


def _build_parser() -> argparse.ArgumentParser:
    # Imported here, not at the top, so that importing `aqci.cli` does not
    # load it: only parsing a command line does.
    import argparse

    parser = argparse.ArgumentParser(
        prog="aqci",
        description="Invariants of quotient singularities presented by weighted laminar families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _datum_command(sub, "validate", _cmd_validate, "check the family axioms on a datum file")
    _datum_command(sub, "info", _cmd_info, "all invariants of one datum")
    _datum_command(
        sub, "lct", _cmd_lct, "log canonical threshold", ("recursion", "lp", "both"), "both"
    )
    _datum_command(
        sub, "mult", _cmd_mult, "multiplicity (structural rules, bounds, or oracle)",
        ("auto", "oracle", "bounds"), "auto", oracle=True,
    )
    _datum_command(
        sub, "closure", _cmd_closure, "is the integral closure a power of the maximal ideal"
    )

    p = sub.add_parser("dot", help="Graphviz rendering of the member forest")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("enumerate", help="list all isomorphism classes within a budget")
    p.add_argument("--n", type=_positive_int, required=True, help="largest ground-set size")
    _add_budget_flags(p)
    p.add_argument("--jsonl", action="store_true", help="one datum JSON per line")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run every check on every class within a budget")
    p.add_argument("--n-max", type=_positive_int, required=True)
    _add_budget_flags(p)
    p.add_argument("--report", help="write summary JSON here (records go to a .jsonl sibling)")
    _add_oracle_flags(p)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "json" not in args:
            code = args.fn(args)  # dot, enumerate and verify print as they go
        else:
            code, payload, lines = args.fn(args)
            if args.json:
                print(exact_json(payload, sort_keys=True, indent=2))
            else:
                for line in lines:
                    print(line, file=sys.stderr if isinstance(line, _Stderr) else sys.stdout)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except _CliError as exc:
        print(f"aqci: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        # The commands turn their own file errors into _CliError, so this is
        # stdout: closed by the reader, or a write that failed (a full disk).
        # Point it at devnull so that the flush at interpreter exit does not
        # raise again.
        if not isinstance(exc, BrokenPipeError):
            print(f"aqci: cannot write output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
