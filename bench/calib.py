"""A gauge of the machine's speed, run next to each timed pass.

The host this benchmark runs on is shared, and its speed changes by a
fifth or more from second to second and between runs.  `Gauge` runs a
fixed pure-Python work unit (a Fraction row reduction and a modular
sparse matrix product, the kinds of work tiltlab's hot paths do) in a
thread, over and over, while a pass runs in its own process on the same
core, and records when each unit ends and how much CPU time the thread
had used by then.  The units done per CPU second around a span of the
pass are the core's speed during that span, sampled at the same
moments, since the two take turns on the core.

The work unit never imports tiltlab, so no change to the program can
change its cost.
"""

import bisect
import os
import random
import threading
import time
from fractions import Fraction

# Work units per CPU second on an idle 2-core x86-64 host (Python 3);
# only a unit, so that times at reference speed read as seconds there.
REFERENCE_RATE = 600.0
# A span shorter than this is gauged over this much time around it.
MIN_SPAN_S = 0.25

_PRIME = 32003


def _inputs():
    rng = random.Random(20101118)
    q = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)]
         for _ in range(8)]
    p = [{j: rng.randrange(_PRIME) for j in range(24) if rng.random() < 0.4}
         for _ in range(24)]
    return q, p


_Q, _P = _inputs()


def _rref(rows):
    rows = [list(r) for r in rows]
    lead = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = 1 / rows[lead][col]
        rows[lead] = [x * inv for x in rows[lead]]
        for i, row in enumerate(rows):
            if i != lead and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[lead])]
        lead += 1
    return rows


def _mulmod(a, b):
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = (acc.get(j, 0) + x * y) % _PRIME
        out.append({j: v for j, v in acc.items() if v})
    return out


def unit():
    """One work unit; returns a checksum so that nothing is skipped."""
    return _rref(_Q)[-1][-1].numerator + sum(_mulmod(_P, _P)[0].values())


def pin_to_one_core():
    """Keeps this process, and the threads and children it starts from
    now on, on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Gauge:
    """Runs work units in a thread from construction until `stop()`.

    Construct it after `pin_to_one_core()`, so that it shares the core
    with the passes it gauges.
    """

    def __init__(self):
        self._checksum = unit()
        self._ends = []   # time.monotonic() at the end of each unit
        self._cpu = []    # the thread's CPU seconds at the same moment
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            if unit() != self._checksum:
                raise RuntimeError("the gauge's work unit changed its result")
            self._cpu.append(time.thread_time())
            self._ends.append(time.monotonic())

    def stop(self):
        self._stop.set()
        self._thread.join()

    def scale(self, start, end):
        """Factor that states CPU seconds spent in [start, end] (monotonic
        clock) at the reference speed: the units done per CPU second in
        that span over REFERENCE_RATE."""
        pad = max(0.0, MIN_SPAN_S - (end - start)) / 2
        lo = bisect.bisect_left(self._ends, start - pad)
        hi = bisect.bisect_right(self._ends, end + pad)
        if hi - lo < 2:
            raise RuntimeError("the gauge did no work during a timed span")
        rate = (hi - lo - 1) / (self._cpu[hi - 1] - self._cpu[lo])
        return rate / REFERENCE_RATE
