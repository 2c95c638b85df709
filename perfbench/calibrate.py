"""Host-speed calibration of the benchmark's times.

The benchmark runs on a shared host whose speed drifts by a third from
one minute to the next, for every process alike.  A time measured while
that happens says more about the host than about the library.  So each
timed pass interleaves a fixed reference computation (a *slice*, pure
standard-library Python, independent of the library) with the library's
work: a ``SIGALRM`` every ``INTERVAL_S`` runs one slice between two
bytecodes of the main thread.  The slices' own time is subtracted from
the pass, and the rest is rescaled by how fast the slices ran:

    calibrated = (wall - slices) * NOMINAL_SLICE_S / mean slice time

which is the pass's time on a host where a slice takes NOMINAL_SLICE_S.
A change to the library moves the numerator only; a change of host
speed moves both alike and cancels.  Set-up time is calibrated the same
way, from slices run just before and just after its interpreter.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
# a slice's time on the reference host (a 2-vCPU VM, Python 3.11, median)
NOMINAL_SLICE_S = 0.0055


def reference_slice() -> int:
    """The fixed reference computation: Fraction sums and tuple-keyed dict
    updates, the operations the library spends its time on."""
    acc = Fraction(0)
    counts: dict = {}
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += Fraction(i % 17 + 1, i % 19 + 1)
    return len(counts) + acc.denominator % 2


def timed_slices(count: int) -> list:
    """Run ``count`` slices back to back and return each one's time."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - t0)
    return times


def calibrated(raw_s: float, slice_s: float) -> float:
    return raw_s * NOMINAL_SLICE_S / slice_s


class Interleaver:
    """Runs a slice every INTERVAL_S of wall time while active."""

    def __init__(self) -> None:
        self.slices = 0
        self.slice_total_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_slice()
        self.slice_total_s += time.perf_counter() - t0
        self.slices += 1

    def __enter__(self) -> "Interleaver":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mean_slice_s(self) -> float:
        if self.slices == 0:  # a pass shorter than one interval
            return sum(timed_slices(5)) / 5
        return self.slice_total_s / self.slices
