"""Host speed: a fixed pure-Python probe timed between operations.

A shared host changes speed by up to 1.8x within seconds, and stays in a
slow or fast regime for minutes.  Repeating rounds alone cannot remove a
regime that lasts a whole run, so every timed interval is also scaled by
the host speed measured around it.  The probe is a fixed piece of Fraction
arithmetic (object allocation, calls, integer gcd), timed with the collector
off, so its time depends on the host and the interpreter but not on the
program's heap.  A scaled time is

    raw seconds * REF_PROBE_S / (mean probe time around the interval)

that is, what the interval would have taken on a host that runs the probe
in REF_PROBE_S.  REF_PROBE_S is the probe's time on the reference host (a
2-core Xeon VM, Python 3.11.7) in a fast phase, so scaled times read close
to raw times there.  It is a constant: it never depends on a run, so scaled
times of different runs, commits and hosts compare directly.

Why this probe: on the reference host, over 10-14 rounds of identical work,
the round time varied by 11-16% (coefficient of variation) unscaled.  Scaled
by this probe it varied by 0.7% (hom-grid), 1.0% (ext-survey) and 3%
(hom-counts); a dict-and-tuple probe did no better on hom-counts and worse
on the other two (2.4-4.3%).
"""

from __future__ import annotations

import gc
from array import array
from fractions import Fraction
from time import perf_counter

REF_PROBE_S = 0.0002
# the loop probes before an operation once this much time has passed since
# the previous probe; operations longer than this get a probe on each side
EVERY_S = 0.01


def _probe_work(n=40):
    acc = Fraction(0)
    for i in range(1, n):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    return acc


def probe() -> float:
    """Seconds the probe work takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _probe_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float, ref_s: float = REF_PROBE_S) -> float:
    """Scale for an interval bracketed by two probe readings."""
    return ref_s / ((before + after) / 2)


class SpeedTrack:
    """Probe readings taken between the operations of one loop.

    tick(i) runs before operation i and probes when EVERY_S has passed;
    close(n) probes after the last one.  scale() then maps each operation's
    raw latency through the readings on either side of it.  A loop whose
    operations are not in-process work passes its own probe and that
    probe's reference time.
    """

    def __init__(self, probe_fn=probe, ref_s=REF_PROBE_S):
        self.probe = probe_fn
        self.ref_s = ref_s
        self.marks: list[tuple[int, float]] = []
        self.last = float("-inf")

    def tick(self, i: int) -> None:
        if perf_counter() - self.last >= EVERY_S:
            self.marks.append((i, self.probe()))
            self.last = perf_counter()

    def close(self, n: int) -> None:
        self.marks.append((n, self.probe()))

    def scale(self, latencies):
        out = array("d")
        for (a, before), (b, after) in zip(self.marks, self.marks[1:]):
            f = factor(before, after, self.ref_s)
            out.extend(lat * f for lat in latencies[a:b])
        return out

    def speed(self) -> float:
        """Median host speed over the loop, 1.0 being the reference host."""
        readings = sorted(p for _, p in self.marks)
        return self.ref_s / readings[len(readings) // 2]
