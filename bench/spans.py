"""Spans and counts around calls into the layers of `aqci`, for the traced run.

`Tracer.install` rebinds selected public functions in every loaded `aqci`
module that holds them (the defining module, the modules that imported the
name, and the package itself), so calls between modules and recursive calls
go through a wrapper.  No source file changes; `uninstall` restores the
originals.

A span is (name, start, end, parent index, item id, nested), kept in memory
and written out when the run ends.  `nested` marks a span inside another
span of the same name (recursion), so `*.s` counts each outermost call once.
Hot helpers are counted, not spanned, so spans do not swamp the work.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from functools import wraps

# (module, function) pairs wrapped in spans.
SPANNED = (
    ("cli", "main"),
    ("verify", "check_datum"),
    ("verify", "ceiling_power_grid"),
    ("verify", "product_concavity_grid"),
    ("enumeration", "enumerate_data"),
    ("datum", "validate"),
    ("datum", "canonical_form"),
    ("datum", "signature"),
    ("lct", "lct_datum"),
    ("lct", "lct_lp"),
    ("lct", "find_closure_power"),
    ("lp", "solve_min"),
    ("invariants", "group_order"),
    ("invariants", "group_order_lattice"),
    ("invariants", "floor_factor_product"),
    ("multiplicity", "multiplicity"),
    ("multiplicity", "multiplicity_lower_bound"),
    ("multiplicity", "multiplicity_upper_bound"),
    ("multiplicity", "hilbert_samuel_table"),
)
# Hot helpers: calls are counted only.
COUNTED = (
    ("datum", "children"),
    ("datum", "restrict"),
    ("datum", "reduce"),
    ("lct", "newton_contains"),
)
# Each call of these starts a new item id (the verify workload's classes).
ITEM_BOUNDARY = "verify.check_datum"
ORACLE = "multiplicity.hilbert_samuel_table"
# The one span counted outside the timed section too: the sweep enumerates
# its classes in set-up, and that time belongs to `setup_s`.
SETUP_SPAN = "enumeration.enumerate_data"

# Per-layer metrics and their units; the last part of a name says how it is
# derived (README.md lists what each should move).
LAYER_METRICS = {
    "multiplicity.hilbert_samuel_table.s": "s",
    "multiplicity.hilbert_samuel_table.calls": "count",
    "multiplicity.hilbert_samuel_table.points": "count",
    "multiplicity.hilbert_samuel_table.distinct_share": "share",
    "lct.find_closure_power.self_s": "s",
    "lct.newton_contains.calls": "count",
    "lp.solve_min.s": "s",
    "lp.solve_min.calls": "count",
    "lct.lct_lp.self_s": "s",
    "lct.lct_datum.self_s": "s",
    "lct.lct_datum.calls": "count",
    "multiplicity.multiplicity.self_s": "s",
    "multiplicity.multiplicity_lower_bound.self_s": "s",
    "multiplicity.multiplicity_upper_bound.self_s": "s",
    "invariants.floor_factor_product.self_s": "s",
    "invariants.group_order.self_s": "s",
    "invariants.group_order_lattice.s": "s",
    "datum.children.calls": "count",
    "datum.restrict.calls": "count",
    "datum.reduce.calls": "count",
    "datum.validate.s": "s",
    "datum.canonical_form.s": "s",
    "datum.signature.s": "s",
    "enumeration.enumerate_data.s": "s",
    "verify.check_datum.self_s": "s",
    "verify.check_datum.calls": "count",
    "verify.product_concavity_grid.s": "s",
    "verify.ceiling_power_grid.s": "s",
    "cli.main.self_s": "s",
    "trace.uncovered_share": "share",
    "trace.overhead_share": "share",
}


class Tracer:
    """Records spans and counts for one process; not thread-safe."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = None
        self.oracle_calls: list = []  # (start, datum, points) per oracle call
        self.probes: list = []  # (start, end, innermost open span) per speed probe
        self.t_start = float("-inf")
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._bound: list = []
        self._items = 0

    def mark(self, item) -> None:
        self.item = item

    def start_timed(self, start: float) -> None:
        """Start the timed section at `start`, a `time.monotonic()` reading.

        Spans that start earlier (set-up), but those of `SETUP_SPAN`, and
        every count made earlier stay out of the per-layer metrics.
        """
        self.counts.clear()
        self.t_start = start

    def probe(self, start: float, end: float) -> None:
        """Record a speed probe (speed.py), whose time belongs to no layer.

        Probes run from a signal handler, maybe inside a wrapper between
        two of its steps, so they go to their own list.
        """
        self.probes.append((start, end, self._stack[-1] if self._stack else -1))

    def _span(self, name: str, fn):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.monotonic
        boundary = name == ITEM_BOUNDARY
        oracle = name == ORACLE

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if boundary:
                self.item = f"{name}#{self._items}"
                self._items += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = depth[name] > 0
            stack.append(idx)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, nested)
            if oracle:
                self.oracle_calls.append((start, args[0], result.points))
            return result

        return wrapper

    def _generator_span(self, name: str, fn):
        """A span per step of a generator, so consumer time is not counted."""
        step = self._span(name, next)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    yield step(gen)
                except StopIteration:
                    return

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        modules = [m for k, m in sorted(sys.modules.items()) if k == "aqci" or k.startswith("aqci.")]
        targets = [(t, self._span) for t in SPANNED] + [(t, self._counter) for t in COUNTED]
        for (mod, fn_name), make in targets:
            name = f"{mod}.{fn_name}"
            orig = getattr(sys.modules[f"aqci.{mod}"], fn_name)
            if name == "enumeration.enumerate_data":
                make = self._generator_span
            wrapper = make(name, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, orig))
        return self

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._bound):
            setattr(module, attr, orig)
        self._bound.clear()

    def layer_metrics(self, end: float, key, scale: float = 1.0) -> dict:
        """Every per-layer metric but `trace.overhead_share`, from the spans.

        They cover the timed section, from `start_timed` to `end`, plus
        every `SETUP_SPAN` span; `key(datum)` gives an oracle input's class,
        for the share of oracle calls on distinct classes.  Times are
        multiplied by `scale`, the rep's reference over raw seconds
        (speed.py), and leave out the probes.
        """
        start, spans = self.t_start, self.spans
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter(self.counts)
        covered = probed = 0.0
        for name, s, e, parent, _, nested in spans:
            if s < start and name != SETUP_SPAN:
                continue
            dur = e - s
            calls[name] += 1
            self_time[name] += dur
            if parent >= 0:
                self_time[spans[parent][0]] -= dur
            else:
                covered += max(0.0, min(e, end) - max(s, start))
            if not nested:
                total[name] += dur
        def counted(i: int) -> bool:
            return spans[i][1] >= start or spans[i][0] == SETUP_SPAN

        for s, e, parent in self.probes:
            dur = e - s
            if start <= s < end:
                probed += dur
                if parent >= 0:
                    covered -= dur
            if parent >= 0 and counted(parent):
                self_time[spans[parent][0]] -= dur
            while parent >= 0:
                name, _, _, up, _, nested = spans[parent]
                if not nested and counted(parent):
                    total[name] -= dur
                parent = up
        oracle = [(d, p) for s, d, p in self.oracle_calls if s >= start]
        distinct = len({key(d) for d, _ in oracle})
        derived = {
            "multiplicity.hilbert_samuel_table.points": sum(p for _, p in oracle),
            "multiplicity.hilbert_samuel_table.distinct_share": distinct / len(oracle) if oracle else 0.0,
            "trace.uncovered_share": 1.0 - covered / (end - start - probed),
        }
        out = {}
        for metric, unit in LAYER_METRICS.items():
            layer, _, kind = metric.rpartition(".")
            if metric in derived:
                value = derived[metric]
            elif kind == "s":
                value = total[layer] * scale
            elif kind == "self_s":
                value = self_time[layer] * scale
            elif kind == "calls":
                value = calls[layer]
            else:
                continue
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        fields = ("name", "start", "end", "parent", "item", "nested")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
