"""Calibrated timing: seconds rescaled to a fixed CPU speed.

A shared virtual machine runs the same code at speeds that differ by up to
1.9x, changing every few seconds and drifting over minutes, so raw pass
times of identical code spread by 30% between runs.  The ``Calibrator``
measures the CPU's speed during the very interval it times: a profiling
timer (``ITIMER_PROF``) interrupts the process every ``INTERVAL_S`` of its
CPU time, and the handler times one fixed calibration sample (an
interpreter loop, tiny numpy calls, method calls and dict stores, like a
pass's inner loops) on the same thread and CPU.  ``Window.calibrate``
scales each stretch of the interval between two samples by the speed the
next sample measured, leaves the samples' own time out, and gives the
interval's length on a CPU where one sample takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from time import monotonic

import numpy as np

#: Seconds one calibration sample takes at the reference speed: about the
#: median sample during a pass on a busy shared 2-vCPU x86-64 virtual
#: machine, where each sample starts with caches full of the pass's data.
REFERENCE_S = 110e-6
#: Process CPU seconds between two samples.
INTERVAL_S = 0.01

_V = np.ones(8)


class _Point:
    def __init__(self, x: float):
        self.x = x

    def step(self, y: float) -> float:
        return self.x * y + 1.0


_P = _Point(0.5)


def _sample() -> float:
    # An arithmetic loop, tiny numpy calls, then method calls and dict
    # stores: interpreter work like a pass's inner loops.  No LAPACK call:
    # a small dense solve tracked the workloads' speed erratically.
    s = 0.0
    for i in range(1000):
        s += i * 0.5
    for _ in range(5):
        w = _V + _V
        w = w * 2.0
        s += float(_V @ w)
    seen = {}
    y = 0.0
    for i in range(100):
        y = _P.step(y) * 0.5
        seen[i & 7] = y
    return s + sum(seen.values())


@dataclass(frozen=True)
class Window:
    """Calibration samples, as ``(start, seconds)`` on ``time.monotonic``."""

    samples: tuple[tuple[float, float], ...]

    def _inside(self, start: float, end: float):
        return [(t, d) for t, d in self.samples if start <= t < end]

    def spent_s(self, start: float, end: float) -> float:
        """Seconds the samples took between ``start`` and ``end``."""
        return sum(d for _, d in self._inside(start, end))

    def calibrate(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, less the samples, at the reference speed."""
        total, t = 0.0, start
        for sample_start, seconds in self._inside(start, end):
            total += (sample_start - t) / seconds
            t = sample_start + seconds
        return (total + (end - t) / self.samples[-1][1]) * REFERENCE_S


class Calibrator:
    """Samples the CPU's speed while started; ``take()`` hands over the
    samples taken since the last call."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = monotonic()
        _sample()
        self._samples.append((t0, monotonic() - t0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def take(self) -> Window:
        samples, self._samples = self._samples, []  # a sample taken mid-swap lands in ``samples``
        if not samples:
            raise RuntimeError("no calibration sample in the interval; it was too short")
        return Window(tuple(samples))
