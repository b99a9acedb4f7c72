"""A speed probe timed inside the benchmark's timed regions.

The machine the benchmark runs on is shared: other tenants slow its cores
by up to 2x for stretches of seconds to minutes, and no setting inside the
machine turns that off. So every timed region runs with a :class:`Probe`:
every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler, in the main thread
between two bytecodes of the program, times one call of a fixed reference
kernel. The kernel is small numpy arithmetic driven from a Python loop,
the pattern of the program's trainers and scoring, so it slows when the
program slows: over the ops of one run, log op time against log kernel
time has a slope of about 1. Its mean duration over a region says how fast
the core ran during that region.

:func:`rescale` turns a region's wall time into the time it would have
taken with the kernel at ``REF_S``: wall time × ``REF_S`` / mean kernel
time. ``REF_S`` only sets the scale; it is about the kernel's duration on
an idle core of the 2-core x86-64 machine the benchmark was tuned on, so
rescaled times there read as uncontended wall times. The probe's own cost,
1–2% of a region, is part of every region alike.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
REF_S = 2.5e-4

_VEC = np.ones(48)


def kernel() -> None:
    """The fixed reference work; about 0.25 ms on an idle core."""
    v = _VEC
    for _ in range(200):
        v = v * 0.5 + _VEC


def time_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


class Probe:
    """Time the kernel every ``interval`` seconds while the block runs.

    ``samples`` holds the kernel's durations: one just before the block,
    one per timer tick inside it, and one just after, so even a region
    shorter than the interval has two.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(time_kernel())

    def __enter__(self) -> "Probe":
        self.samples = [time_kernel()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(time_kernel())

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def rescale(wall_s: float, probe_mean_s: float) -> float:
    """``wall_s`` at the reference speed: wall × REF_S / mean kernel time."""
    return wall_s * REF_S / probe_mean_s
