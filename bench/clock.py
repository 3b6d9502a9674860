"""Query completion times, converted to reference seconds.

The same pure-Python work was measured to take up to 1.5x longer from
one few-second window to the next on the 2-CPU machine this benchmark
was written on (Python 3.11.7); CPU time moved with wall time, so the
drift is in machine speed, not in scheduling.  To keep it out of the
metrics, the clock runs a fixed calibration kernel (benchmark code that
never calls webrank) between queries, at most once per
CALIBRATE_EVERY_NS, and scales each raw interval by the kernel time
measured right after it (the median of the last WINDOW kernel runs, so
that the jitter of single runs does not skew short segments):

    reference_ns = raw_ns * REFERENCE_NS / kernel_ns

Kernel runs are excluded from every measured interval, and run with the
garbage collector paused: a collection of the program's heap would be
charged to the machine.  A faster or slower program moves reference
time exactly as it moves raw time.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_right
from fractions import Fraction
from math import gcd

CALIBRATE_EVERY_NS = 10_000_000
REFERENCE_NS = 295_000      # kernel time at the reference speed
WINDOW = 9


def kernel():
    """Integer, dict and Fraction work, then a fraction-free row update on
    multi-word integers: the two kinds of work the package does most."""
    acc, table, f = 0, {}, Fraction(1, 3)
    for i in range(400):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        if i % 16 == 0:
            f = f * Fraction(i + 1, i + 2) + 1
    rows = [[(i * 37 + j * 101) % 997 * (1 << 70) + j for j in range(40)]
            for i in range(10)]
    prow, p = rows[0], rows[0][0]
    for i in range(1, 10):
        e = rows[i][0]
        rows[i] = [a * p - e * b for a, b in zip(rows[i], prow)]
        g = 0
        for v in rows[i][:6]:
            g = gcd(g, v)
    return acc, f, rows


class QueryClock:
    """Raw completion times of outermost query calls, plus calibration.

    In a closed loop with one client a query starts when the previous one
    returns, so latencies are the gaps between consecutive completions.
    Nested marker calls (a validity decision inside a rank search) do not
    end a query; only the outermost one does.
    """

    def __init__(self):
        self.marks = []              # raw perf_counter_ns completion times
        self.captured = []           # (marker name, args, result)
        self.first_factor = None     # reference/raw at the first calibration
        self._depth = 0
        self._open = None            # raw start of the segment being timed
        self._starts = []            # closed segments: raw start
        self._segments = []          # (raw start, raw end, factor, reference start)
        self._reference = 0
        self._recent = []            # the last kernel times, ns
        kernel()                     # warm up: the first run pays for allocation
        for _ in range(WINDOW - 1):
            self._recent.append(self._time_kernel())

    def calibrate(self, force=False):
        """Close the open segment with a kernel run, if one is due."""
        if self._open is not None and not force and \
                time.perf_counter_ns() - self._open < CALIBRATE_EVERY_NS:
            return
        start = time.perf_counter_ns()
        self._recent = self._recent[1 - WINDOW:] + [self._time_kernel()]
        end = time.perf_counter_ns()
        factor = REFERENCE_NS / sorted(self._recent)[WINDOW // 2]
        if self._open is None:
            self.first_factor = factor
        else:
            self._starts.append(self._open)
            self._segments.append((self._open, start, factor, self._reference))
            self._reference += (start - self._open) * factor
        self._open = end

    @staticmethod
    def _time_kernel():
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            kernel()
            return time.perf_counter_ns() - start
        finally:
            if gc_was_on:
                gc.enable()

    def reference_ns(self, t):
        """Reference time of raw time t, which must precede the last
        calibration; a time inside a kernel run maps to the run's start."""
        i = bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        seg_start, seg_end, factor, ref = self._segments[i]
        return ref + (min(t, seg_end) - seg_start) * factor

    def marker(self, label, capture=False, ends_query=True):
        """Wrapper factory.  An outermost call ends a query unless
        ends_query is false; any call outside a query-ending one lets the
        clock calibrate; capture keeps (label, args, result)."""
        def make(fn):
            def timed(*args, **kwargs):
                self._depth += ends_query
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._depth -= ends_query
                    if self._depth == 0:
                        if ends_query:
                            self.marks.append(time.perf_counter_ns())
                        self.calibrate()
                if capture:
                    self.captured.append((label, args, out))
                return out
            return timed
        return make
