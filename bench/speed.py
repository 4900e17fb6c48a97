"""Times corrected for the speed of the CPU at the moment they were taken.

On a shared host a CPU's speed for Python code drifts: it switches between
levels about 1.7x apart, for tens of milliseconds to minutes at a time, so
raw times of the same code on the same input spread by tens of percent
between runs minutes apart.  A probe is a fixed piece of exact rational
arithmetic (`fractions.Fraction`, the kind of work aqci's LPs and bounds
do); its time says how fast the CPU runs such Python code right now.  Of
the probes tried (dict lookups, short-lived tuples, a large dict, Fraction
arithmetic), it tracked the workloads' own slowdowns best: corrected times
of one workload input spread by 1.5-6% where dict lookups left 4-11%.

A `Speedometer` runs a probe every `SEGMENT_S` of wall time, from a
`SIGALRM` handler, which Python runs in the main thread between bytecodes.
That splits the process's life into segments.  Each segment's time is
scaled by `REFERENCE_PROBE_S` over the mean of the probes on its two sides,
and the scaled times are summed: the stretch's time on a CPU that runs the
probe in `REFERENCE_PROBE_S`.  Probe time itself is left out of every time.
A change to `aqci` can move the segments' times but not the probe's.

Segments before `start` are set-up, those after it the timed section.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Terms of the probe's sum: 0.5-1.5 ms on a 2.1 GHz Xeon.
PROBE_TERMS = 120
# A probe time that means "reference speed": about the probe's median time
# on the host where the benchmark was built, so scaled times read about as
# raw times did there.
REFERENCE_PROBE_S = 0.0007
# Wall time between two probes.  A handler waits for a running C call (one
# large `sorted`, say) to return, so some segments are longer.
SEGMENT_S = 0.05


class Speedometer:
    """Probes and scaled segment times of one process; not thread-safe.

    Making one starts the probes; `stop` ends them.  `on_probe(start, end)`,
    once set, is told the interval of every probe, so a tracer can leave
    probes out of its spans.
    """

    def __init__(self):
        # When the speedometer was made; the caller times what came before.
        self.born = time.monotonic()
        fractions = [Fraction(i + 1, (i * 7) % 13 + 1) for i in range(64)]
        self.terms = tuple(
            (fractions[i % 61], fractions[i % 61 + 3], fractions[i % 61 + 1]) for i in range(PROBE_TERMS)
        )
        self.on_probe = None
        self.setup_segments: list[tuple[float, float, tuple, tuple]] = []
        self.segments = self.setup_segments
        self._busy = False
        self._probe()  # warm-up
        self.last = self._timed_probe()
        self._open()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def _probe(self) -> Fraction:
        total = Fraction(0)
        for a, b, c in self.terms:
            total += a * b - c
        return total

    def _timed_probe(self) -> tuple[float, float]:
        """(wall, CPU) seconds of one probe."""
        c0, t0 = time.process_time(), time.monotonic()
        self._probe()
        t1, c1 = time.monotonic(), time.process_time()
        if self.on_probe:
            self.on_probe(t0, t1)
        return t1 - t0, c1 - c0

    def _open(self) -> float:
        self.seg_cpu, self.seg_start = time.process_time(), time.monotonic()
        return self.seg_start

    def _close(self) -> float:
        end, cpu = time.monotonic(), time.process_time()
        before, self.last = self.last, self._timed_probe()
        self.segments.append((end - self.seg_start, cpu - self.seg_cpu, before, self.last))
        return end

    def _on_alarm(self, signum, frame) -> None:
        # One-shot timer, re-armed here, so handlers never overlap.
        if not self._busy:
            self._close()
            self._open()
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def start(self) -> float:
        """End set-up and open the timed section; return its start time."""
        self._busy = True
        self._close()
        self.segments = []
        start = self._open()
        self._busy = False
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)
        return start

    def stop(self) -> float:
        """End the probes and the timed section; return its end time."""
        self._busy = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self._close()

    @staticmethod
    def scale(before, after) -> tuple[float, float]:
        """Factors that turn raw (wall, CPU) seconds between two probes into reference seconds."""
        return (
            2 * REFERENCE_PROBE_S / (before[0] + after[0]),
            2 * REFERENCE_PROBE_S / (before[1] + after[1]),
        )

    @classmethod
    def totals(cls, segments) -> dict:
        """Scaled and raw wall and CPU seconds of `segments`, probes left out."""
        wall = cpu = raw_wall = raw_cpu = 0.0
        for seg_wall, seg_cpu, before, after in segments:
            f_wall, f_cpu = cls.scale(before, after)
            wall += seg_wall * f_wall
            cpu += seg_cpu * f_cpu
            raw_wall += seg_wall
            raw_cpu += seg_cpu
        return {"wall_s": wall, "cpu_s": cpu, "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu}
