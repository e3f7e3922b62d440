"""Host-speed probe: a fixed piece of pure-Python work, timed between instances.

The benchmark runs on small shared hosts whose speed drifts.  On the 2-vCPU
Intel Xeon guest that set the bounds, the same batch took from 1x to 2x its
fastest time from one minute to the next, with every repeat inside a run
slow alike.  So no statistic taken inside one run removes the drift.

The probe does the kind of work the simulator does, and which the drift hit
hardest: it allocates slotted objects with lists and dicts, then chases
pointers through a ring of lists spread over some megabytes.  It is timed
before every set-up, every pipeline run and every oracle check.  Host times
are scaled by ``REFERENCE_S / mean probe time`` of the run and read as
seconds at the host speed where the probe takes ``REFERENCE_S``.  The mean
is taken because a run's time is the sum of its slow and fast stretches.
The probe never calls the package, so a change to the package moves the
scaled times and leaves the scale alone.  Each run record keeps the raw
times and the scale.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REFERENCE_S = 0.030  # about the probe's mean on the 2-vCPU Intel Xeon guest
CELLS = 10000
RING = 1 << 17
STEPS = 60000


class _Cell:
    __slots__ = ("key", "value", "log", "table")

    def __init__(self, key: int, value: int):
        self.key, self.value, self.log, self.table = key, value, [], {}


def _churn() -> None:
    cells = [_Cell(i, i * 7) for i in range(CELLS)]
    for r in range(CELLS):
        cell = cells[(r * 7919) % CELLS]
        cell.log.append((r, cell.key))
        cell.table[r & 15] = cell.value
        if len(cell.log) > 8:
            cell.log = [x for x in cell.log if x[0] & 1]


def _chase(ring: list) -> int:
    node, acc = ring[0], 0
    for _ in range(STEPS):
        acc += node[1]
        node = ring[node[0]]
    return acc


class Probe:
    """Probe samples of one run, and the scale they give its host times."""

    def __init__(self):
        order = list(range(RING))
        random.Random(0).shuffle(order)
        self._ring: list = [None] * RING
        for i, slot in enumerate(order):
            self._ring[slot] = [order[(i + 1) % RING], i]
        self.samples: list[float] = []

    def run(self) -> None:
        # The collector would walk every object the benchmark holds, so the
        # sample would time the heap and not the host.
        gc.disable()
        try:
            t0 = time.perf_counter()
            _churn()
            _chase(self._ring)
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def scale(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)
