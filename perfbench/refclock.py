"""Reference time: wall time scaled by the speed the host gives the process.

On a shared host the CPU speed one process gets swings by up to a factor of
two over tens of seconds (co-tenants on the same physical cores), and the
process's CPU time swings with it, so medians within one run cannot remove
it.  A fixed calibration loop, run *between* timed steps and never inside
one, measures that speed as it changes: about 3 ms of loop after every 80 ms
of timed work, which tracked the speed better than longer loops run less
often.  The loop is one epoch of minibatch softmax SGD in plain numpy, the
same mix of interpreter dispatch and small array kernels as the simulator's
hot path, because a pure-Python loop tracked the slowdowns of numpy-heavy
rounds less well.  Every timed interval is scaled by ``REFERENCE_S`` over the
calibration time around it, so it reads as if the host had run the loop in
``REFERENCE_S``.  The loop shares no code with the program, so a faster
program still reads faster, and the time spent calibrating is left out of
every interval.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

import numpy as np

CALIBRATION_DATA = np.linspace(-1.0, 1.0, 4096 * 32).reshape(4096, 32)
# Median of calibrate() on the 2-vCPU host the benchmark was tuned on.
REFERENCE_S = 0.0028


def calibrate() -> float:
    """Seconds a fixed softmax-SGD loop over ``CALIBRATION_DATA`` takes now."""
    started = perf_counter()
    weights = np.full((32, 10), 0.01)
    for first in range(0, len(CALIBRATION_DATA), 32):
        batch = CALIBRATION_DATA[first : first + 32]
        logits = batch @ weights
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        weights -= 0.001 * (batch.T @ probs)
    return perf_counter() - started


class RefClock:
    """A clock that stops while it calibrates, and converts its intervals
    to reference seconds afterwards.

    ``every_s=None`` never calibrates: intervals then read as wall seconds.
    Call ``tick()`` between timed steps and ``calibrate()`` after the last
    one, so every interval lies between two calibrations.
    """

    def __init__(self, every_s: float | None = 0.08):
        self.every_s = every_s
        self.paused = 0.0
        self.points: list[float] = []  # clock time of each calibration
        self.loop_s: list[float] = []  # what each calibration measured

    def now(self) -> float:
        return perf_counter() - self.paused

    def calibrate(self) -> None:
        if self.every_s is None:
            return
        started = perf_counter()
        at = started - self.paused
        self.loop_s.append(calibrate())
        self.points.append(at)
        self.paused += perf_counter() - started

    def tick(self) -> None:
        """Calibrate if the last calibration is ``every_s`` or more ago."""
        if self.every_s is not None and (
            not self.points or self.now() - self.points[-1] >= self.every_s
        ):
            self.calibrate()

    def _factor(self, segment: int) -> float:
        """Reference seconds per clock second between calibrations
        ``segment`` and ``segment + 1`` (the nearest one at either end)."""
        loop_s = self.loop_s
        if segment < 0:
            return REFERENCE_S / loop_s[0]
        if segment >= len(loop_s) - 1:
            return REFERENCE_S / loop_s[-1]
        return 2 * REFERENCE_S / (loop_s[segment] + loop_s[segment + 1])

    def reference_s(self, start: float, end: float) -> float:
        """The clock interval ``[start, end]`` in reference seconds."""
        if not self.points:
            return end - start
        points = self.points
        segment = bisect_right(points, start) - 1
        total, t = 0.0, start
        while t < end:
            upto = points[segment + 1] if segment + 1 < len(points) else end
            upto = min(upto, end)
            total += (upto - t) * self._factor(segment)
            t, segment = upto, segment + 1
        return total
