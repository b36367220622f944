"""Machine-speed calibration, to take the host's drift out of timings.

On a shared 2-core host the speed of both cores drifts together by up to
50% over tens of seconds, longer than a run, so medians within a run do
not remove it. The benchmark therefore times three fixed kernels of its
own just before and just after each timed operation, on the core the
operation ran on and while nothing else of the benchmark runs, and
divides the operation's time by the mean slowness they show. The kernels
stand for the three kinds of work in the pipeline:

- ``py``: splitting and parsing text records in the interpreter;
- ``row``: numpy calls on one 41-feature row at a time, as detect makes;
- ``batch``: a dense tanh layer over a 20000-row batch, as training does.

They weigh equally. None of them calls the program, so a change to the
program cannot move them.
"""

import random
import statistics
import time

import numpy as np

# Kernel seconds in a fast window of a 2-core x86_64 host, Python 3.11,
# numpy 2.4 with one OpenBLAS thread; scaled times read in these units.
REFERENCE = {"py": 0.0175, "row": 0.0120, "batch": 0.0110}
REPEATS = 3


class Calibrator:
    """Times the kernels; measure() gives each one's median of REPEATS."""

    def __init__(self):
        rng = random.Random(12345)
        self.lines = [",".join(f"{rng.random() * 1000:.2f}" for _ in range(20))
                      for _ in range(8000)]
        nrng = np.random.default_rng(12345)
        self.x = nrng.random((20_000, 41))
        self.w = nrng.random((41, 20))
        self.rows = [list(r) for r in nrng.random((1200, 41))]
        self.lo, self.span = np.zeros(41), np.ones(41)

    def _py(self) -> None:
        total = 0.0
        for line in self.lines:
            for field in line.split(","):
                total += float(field)

    def _row(self) -> None:
        for row in self.rows:
            x = np.clip((np.array(row) - self.lo) / self.span, 0.0, 1.0)
            z = np.tanh(x @ self.w)
            np.exp(z - z.max()).sum()

    def _batch(self) -> None:
        for _ in range(6):
            np.tanh(self.x @ self.w).sum()

    def measure(self) -> dict:
        """Slowness per kernel now: 1.0 at reference speed, 1.3 when 30% slower."""
        out = {}
        for name, kernel in (("py", self._py), ("row", self._row),
                             ("batch", self._batch)):
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
            out[name] = statistics.median(times) / REFERENCE[name]
        return out


def factor(before: dict, after: dict) -> float:
    """Divisor for an operation timed between two measure() calls."""
    return (statistics.mean(before.values()) + statistics.mean(after.values())) / 2
