"""Host-speed probe that puts job times on a common scale.

The shared two-core host this benchmark was tuned on changes speed by up to
2x over seconds to minutes (other tenants; the guest sees no steal time and
no hardware counters, so CPU time drifts as much as wall time).  Raw times
from two runs minutes apart therefore disagree by more than any useful
regression bound.  A fixed probe made of the same kinds of work as perigid
(rational arithmetic, small dense linear algebra, Python loops) runs around
and during each job; its time relative to REFERENCE_S is the host's
slowdown at that moment, and the job's time divided by the slowdown is its
time at the reference speed.  The probe is benchmark code only, so a change
to perigid never moves it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

# Probe time on an unloaded 2-core Xeon (Python 3.11, numpy 2.4, one BLAS
# thread).  Scaled times read in seconds at that speed.
REFERENCE_S = 1.7e-3

_MATRIX = np.random.default_rng(0).standard_normal((12, 12))


def probe() -> float:
    """Seconds one fixed probe workload takes now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7, i)
    for _ in range(20):
        np.linalg.svd(_MATRIX)
    return time.perf_counter() - start


class Sampler:
    """Measures calls at the reference host speed.

    ``measure(fn)`` probes once before and once after the call and, through
    SIGALRM, every INTERVAL_S of wall time during it; the call's time minus
    the probes inside it, divided by the mean slowdown of all its probes, is
    its time at the reference speed.  Sampling inside long calls matters:
    a 2 s cone job sees the host change speed while it runs.  The handler
    only runs between bytecodes, so it never interrupts numpy mid-call.
    ``on_probe(start, end)`` is told about each probe inside a call, so a
    tracer can keep probe time out of the layers' figures.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.on_probe = None
        self._inside: list[float] | None = None
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        if self._inside is None:
            return
        start = time.perf_counter()
        seconds = probe()
        self._inside.append(seconds)
        if self.on_probe is not None:
            self.on_probe(start, start + seconds)

    def measure(self, fn):
        """(fn(), seconds excluding probes, seconds at the reference speed)."""
        before = probe()
        self._inside = inside = []
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            # Every probe counted in `inside` ran before this point.
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._inside = None
            elapsed = time.perf_counter() - start
        samples = [before, probe()] + inside
        seconds = elapsed - sum(inside)
        slowdown = sum(samples) / len(samples) / REFERENCE_S
        return result, seconds, seconds / slowdown

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
