"""Fixed reference loops that track the speed of the shared machine.

The machine's speed drifts with its other tenants' load, by up to 1.8x
over minutes, far longer than a run.  No statistic taken inside one run
removes a drift that lasts the whole run, so every run also times a
reference loop that does not depend on the library.  Its median over the
run gives the run's speed, and every time reported is scaled to a
machine on which the loop takes its nominal time.

Load does not slow every kind of work alike, so a workload names the loop
that resembles its own work:

- ``small``: SVDs, eighs, QRs, pseudoinverses, 2-norms and products of
  fixed matrices of order 2 to 8, the many small calls of ``small-many``
  and ``cli-roundtrip``; about 5 ms;
- ``large``: the SVD of a fixed 256 x 256 matrix, for the large SVDs of
  ``large-dense``; about 12 ms.

A loop runs between items, never inside a timed operation or while spans
are installed, about every ``EVERY`` seconds.  Each sample runs it once
untimed, so that what the last item left in the caches does not count,
and then times it ``REPEATS`` times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = {"small": 5.0, "large": 12.0}  # each loop's time on the nominal machine
EVERY = 1.0  # seconds between two samples
REPEATS = 3


class Reference:
    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        self.matrices = [rng.normal(size=(n, n)) for n in range(2, 9)] * 6
        self.big = rng.normal(size=(256, 256))
        self.run = {"small": self.run_small, "large": self.run_large}[kind]
        self.samples: list[float] = []
        self.last = float("-inf")

    def run_small(self) -> None:
        for m in self.matrices:
            u, s, vt = np.linalg.svd(m)
            np.linalg.eigh(m + m.T)
            (u * s) @ vt
        for m in self.matrices[:14]:
            q, r = np.linalg.qr(m)
            np.linalg.pinv(m)
            np.linalg.norm(m, 2)
            np.concatenate([q, r])
            np.allclose(q @ r, m)

    def run_large(self) -> None:
        np.linalg.svd(self.big)

    def sample(self) -> None:
        self.run()
        for _ in range(REPEATS):
            begun = time.perf_counter()
            self.run()
            self.last = time.perf_counter()
            self.samples.append(self.last - begun)

    def due(self) -> None:
        """Sample if ``EVERY`` seconds have gone by since the last sample."""
        if time.perf_counter() - self.last >= EVERY:
            self.sample()

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.samples)

    def nominal_ms(self) -> float:
        return NOMINAL_MS[self.kind]

    def scale(self) -> float:
        """Factor that turns a time measured in this run into nominal time."""
        return self.nominal_ms() / self.median_ms()
