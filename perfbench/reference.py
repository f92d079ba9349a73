"""Speed correction: a fixed reference pass, timed between slices of the
measured work.

The shared machine this benchmark runs on changes speed by 10-60% from one
second to the next (other tenants on the same cores, clock changes), which
moves every timing of a run together. The reference pass never changes with
the package, so its time tracks the machine alone. It has two halves that
resemble the package's two kinds of work: a pure-Python bisection (float
math through ``math.log``, small calls, tuples, a dict) and numpy arithmetic
on a 32k-element array.

A ``Pacer`` runs one pass whenever its ``pulse()`` is called and at least
``PERIOD_S`` has passed since the last pass. The time between two passes is
a *segment*; its slowdown factor is the mean of what the two passes show
(see ``_speed``). ``measure()`` turns a measured interval into *reference
seconds*: the interval minus the passes inside it, each segment's share
divided by the segment's factor. A reference second is a second of this
machine at the speed at which the halves take ``NOMINAL_PYTHON_S`` and
``NOMINAL_ARRAY_S``.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

# rough times of the two halves of a pass on the baseline machine (2-core
# Xeon, 2.1 GHz); they only set the scale of a reference second
NOMINAL_PYTHON_S = 0.0016
NOMINAL_ARRAY_S = 0.0016
PERIOD_S = 0.03


def _kl(p: float, q: float) -> float:
    kl = 0.0
    if p > 0.0:
        kl += p * math.log(p / q)
    if p < 1.0:
        kl += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return kl


def _python_half() -> dict:
    table = {}
    for k in range(1, 50):
        p_hat = k / 1000.0
        lo, hi = 0.0, p_hat
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if _kl(p_hat, mid) >= 0.05:
                lo = mid
            else:
                hi = mid
        table[(k, p_hat)] = (lo, hi)
    return table


_MUS = np.array([0.5, 0.1, 0.0])
_PROBS = np.array([0.7, 0.15, 0.15])
_PHASES = np.linspace(0.0, 0.3, 1 << 15)


def _array_half() -> np.ndarray:
    return (_PROBS[:, None] * np.exp(-np.outer(_MUS, 1.0 - np.cos(_PHASES)))).sum(axis=0)


class Pacer:
    """Reference passes interleaved with the measured work of one process.

    Work comes in two kinds. ``"array"`` work (large numpy arrays, as in the
    fidelity oracle) is corrected by the array half of the passes alone;
    ``"python"`` work (the interpreter, with small numpy calls) mostly by the
    Python half. The kind of a segment is the kind named by the pulse that
    opened it.
    """

    def __init__(self):
        # (start, split, end, kind): python half from start to split
        self.passes: list[tuple[float, float, float, str]] = []
        self._last = -math.inf

    def force(self, kind: str = "python") -> None:
        """Run one reference pass now."""
        start = time.perf_counter()
        _python_half()
        split = time.perf_counter()
        _array_half()
        end = time.perf_counter()
        self.passes.append((start, split, end, kind))
        self._last = end

    def pulse(self, kind: str = "python") -> None:
        """Run a reference pass if the current segment is long enough."""
        if time.perf_counter() - self._last >= PERIOD_S:
            self.force(kind)

    def measure(self, interval: tuple[float, float]) -> tuple[float, float]:
        """(seconds, reference seconds) of the work done in ``interval``,
        leaving out the reference passes inside it.

        Needs a pass before the interval starts and one after it ends.
        """
        start, end = interval
        passes = self.passes
        seconds = corrected = 0.0
        k = bisect.bisect_right(passes, (start, math.inf))  # first pass after start
        seg_start = max(start, passes[k - 1][2])
        while seg_start < end:
            seg = max(0.0, min(end, passes[k][0]) - seg_start)
            kind = passes[k - 1][3]
            factor = (_speed(passes[k - 1], kind) + _speed(passes[k], kind)) / 2
            seconds += seg
            corrected += seg / factor
            seg_start = passes[k][2]
            k += 1
        return seconds, corrected


def _speed(reference_pass, kind: str) -> float:
    """Slowdown factor one pass shows for work of ``kind``.

    Interpreter work is weighted 3:1 towards the Python half; that weight
    tracked both the certification and the optimizer loops to within a few
    per cent on the baseline machine, where either half alone did worse on
    one of them.
    """
    start, split, end, _ = reference_pass
    array = (end - split) / NOMINAL_ARRAY_S
    if kind == "array":
        return array
    return 0.75 * (split - start) / NOMINAL_PYTHON_S + 0.25 * array
