"""The benchmark's own arithmetic: percentiles, self time, reference checks.

Kept free of imports from the program under test so the harness tests
(``perfbench/test_stats.py``) exercise it in isolation.
"""

from __future__ import annotations

import gc
import json
import math
import signal
import statistics
import time

#: percentiles a timing may be reported at, lowest first
TAIL_LADDER = (90.0, 99.0, 99.9)
#: samples a reported tail percentile must have beyond it
MIN_BEYOND = 10


def nearest_rank(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = math.ceil(len(ordered) * q / 100.0) - 1
    return ordered[min(max(rank, 0), len(ordered) - 1)]


def tail_percentile(count: int, ladder=TAIL_LADDER) -> float | None:
    """The highest percentile on ``ladder`` with at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it, or None."""
    best = None
    for q in ladder:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best


def summarize(samples) -> dict:
    """Median, the highest tail percentile the sample supports, and the
    sample count: ``{"n", "p50", "tail_q", "tail"}``."""
    samples = list(samples)
    out = {"n": len(samples), "p50": None, "tail_q": None, "tail": None}
    if not samples:
        return out
    out["p50"] = statistics.median(samples)
    q = tail_percentile(len(samples))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = nearest_rank(samples, q)
    return out


def quietest_median(timed, windows: int) -> float:
    """The lowest median over ``windows`` equal time slices of ``timed``
    ``(time, value)`` pairs: for figures no speed probe can correct, so
    a stretch of the run starved by other work on the machine drops out
    as long as one slice stays clear of it."""
    timed = sorted(timed)
    lo, hi = timed[0][0], timed[-1][0]
    width = (hi - lo) / windows or 1.0
    slices: dict[int, list[float]] = {}
    for t, value in timed:
        slices.setdefault(min(int((t - lo) / width), windows - 1),
                          []).append(value)
    return min(statistics.median(values) for values in slices.values())


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of it its
    child spans cover.  ``spans`` are ``(start, end, parent)`` with
    ``parent`` an index into ``spans`` or None."""
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - covered_length(children.get(i, ()), start, end)
            for i, (start, end, _parent) in enumerate(spans)]


#: seconds per :func:`calibration_loop` iteration at the typical speed
#: of the 2-vCPU machine the benchmark was written on; gated times are
#: reported at this reference speed
REF_S_PER_ITERATION = 6e-7
#: iterations per probe (about half a millisecond)
PROBE_ITERATIONS = 1000


def calibration_loop(iterations: int) -> int:
    """A fixed pure-Python workload (dict, list and str traffic, like the
    program's own) that shares no code with the program, so no change to
    the program can speed it up."""
    table: dict[str, int] = {}
    keys = []
    total = 0
    for i in range(iterations):
        key = "k%d" % (i % 500)
        table[key] = table.get(key, 0) + i
        keys.append(key[1:])
        total += len(keys[-1])
    return total


class SpeedProbe:
    """Samples how fast this thread's core runs while work is timed.

    Shared machines switch a core between a fast and a slow state (about
    2x apart) for seconds at a time, independently per core.  A timer
    signal interrupts the timed work every ``interval_s`` and times one
    short :func:`calibration_loop`; :meth:`timed` subtracts the probes'
    own time and scales the rest to the reference speed by the probes
    taken during the work (or the last one before it).  Use as a context
    manager on the main thread.
    """

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _probe(self, _signum, _frame) -> None:
        # no collection of the program's heap may fall inside a probe: it
        # would be subtracted from the op and slow the probe as well
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_loop(PROBE_ITERATIONS)
            self.samples.append(time.perf_counter() - start)
            self.overhead_s += time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """``(result, measured_s, reference_s)`` for one call of ``fn``;
        both times exclude the probes' own time.

        The speed is the harmonic mean of the probes: with probes evenly
        spaced in time, the op's work is its time multiplied by the mean
        probe speed, which stays right when the core changes state
        mid-op, and one long (disturbed) probe barely moves it."""
        first, overhead = len(self.samples), self.overhead_s
        start = time.perf_counter()
        result = fn()
        measured = (time.perf_counter() - start
                    - (self.overhead_s - overhead))
        window = self.samples[first:] or self.samples[max(first - 1, 0):
                                                      first]
        if not window:
            return result, measured, measured
        speed = (REF_S_PER_ITERATION * PROBE_ITERATIONS
                 / statistics.harmonic_mean(window))
        return result, measured, measured * speed


def row_bytes(row) -> str:
    """A report row in the exact JSON form streams and reports use
    (insertion key order, default separators)."""
    return json.dumps(row)


def rows_match(row, reference: str) -> bool:
    """True when ``row`` serializes byte-identically to ``reference``."""
    return row_bytes(row) == reference

