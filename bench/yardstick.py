"""A fixed piece of work that measures how fast the processor runs now.

The shared host this benchmark was defined on changes processor speed by
up to 2x within tens of seconds; the same op's wall time and CPU time
swing together.  The runner times this yardstick before the first op and
after every op, and reports the median op latency and the throughput at
a reference speed: a raw latency t becomes t * REFERENCE_S / (mean of the
yardstick times right before and after it).  A change to prodgeo moves the scaled latency as it
moves the raw one, while a change in processor speed moves the op and the
yardstick alike and cancels.

The work is second-order forward-mode arithmetic on 3-vectors and 3x3
arrays through small Python objects, the instruction mix of prodgeo's
jets, written here so that it shares no code with prodgeo.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the yardstick's median time on the defining host; scaled
# latencies are seconds on a machine where the yardstick takes this long.
REFERENCE_S = 0.003


class _Jet:
    __slots__ = ("f", "g", "h")

    def __init__(self, f, g, h):
        self.f, self.g, self.h = f, g, h

    def __add__(self, o):
        return _Jet(self.f + o.f, self.g + o.g, self.h + o.h)

    def __mul__(self, o):
        outer = np.outer(self.g, o.g)
        return _Jet(self.f * o.f, self.f * o.g + o.f * self.g, self.f * o.h + o.f * self.h + outer + outer.T)

    def power(self, c):
        d1 = c * math.pow(self.f, c - 1.0)
        d2 = c * (c - 1.0) * math.pow(self.f, c - 2.0)
        return _Jet(math.pow(self.f, c), d1 * self.g, d1 * self.h + d2 * np.outer(self.g, self.g))


def measure() -> float:
    """Seconds the yardstick takes now."""
    t0 = time.perf_counter()
    eye, zero = np.eye(3), np.zeros((3, 3))
    for k in range(16):
        x = [_Jet(0.5 + 0.01 * k + 0.3 * i, eye[i], zero) for i in range(3)]
        a = x[0].power(0.3) * x[1].power(0.5) + x[2] * x[0]
        for _ in range(4):
            a = a * a.power(0.5) + x[1]
    return time.perf_counter() - t0


def scaled(raw: list[float], samples: list[float]) -> list[float]:
    """``raw`` latencies at the reference speed; ``samples[i]`` and
    ``samples[i + 1]`` are the yardstick times right before and after
    ``raw[i]``."""
    return [t * 2.0 * REFERENCE_S / (samples[i] + samples[i + 1]) for i, t in enumerate(raw)]
