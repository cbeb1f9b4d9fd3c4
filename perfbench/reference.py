"""A fixed numpy kernel that measures how fast the host runs at this moment.

On a small shared VM the same code runs ~1.5x slower for stretches of
15-45 s while a neighbour shares the physical core, so the raw wall times of
two runs of identical code disagree by up to ~30%, at any run length. This
kernel is made of the operations a step spends its time in (a row gather, a
small matmul, a scatter-add, an exp) and slows down with the step. The
benchmark times it next to every step and set-up and multiplies their wall
times by NOMINAL_MS / (the kernel's time): figures are then milliseconds at
the host speed where the kernel takes NOMINAL_MS. It is private to the
benchmark, so no change to the library moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 10.0


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.normal(size=(1024, 36))
        self._weight = rng.normal(size=(36, 16))
        self._index = rng.integers(0, 1024, size=9216)
        self.ms()  # the first call pays one-off allocation costs

    def ms(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            cols = self._rows[self._index]
            out = cols @ self._weight
            acc = np.zeros_like(self._rows)
            np.add.at(acc, self._index, cols)
            float(np.exp(-np.abs(out)).sum() + acc.sum())
        return (time.perf_counter() - t0) * 1e3

    def scale(self, repeats: int = 1) -> float:
        """NOMINAL_MS over the kernel's time now (median of ``repeats`` timings)."""
        return NOMINAL_MS / statistics.median(self.ms() for _ in range(repeats))
