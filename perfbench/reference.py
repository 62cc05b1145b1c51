"""A fixed block of work that times the host, not the library.

The host this benchmark runs on is shared: its speed drifts by 10 to 30 %
over spells of tens of seconds to minutes, which moves every wall-clock
figure of a 30 s run by as much.  run.py therefore runs this block between
its set-up probes and its timed rounds, and reports each time at the host speed on which one block
takes ``NOMINAL_S`` seconds: a measured time t becomes
``t * NOMINAL_S / mean(block seconds)``.  The block calls nothing from
irscollab, so a change to the library moves only the measured times, never
the scale.

The block mixes the kinds of work the workloads do: interpreted Python with
small dicts and integers, NumPy integer products and reductions mod 257 on
small matrices, and elementwise passes over arrays larger than the L2 cache.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds one block took on a quiet 2-core KVM guest (Intel Xeon, Python
# 3.11.7, NumPy 2.4.6).  Only a scale: the same constant divides the parent's
# and the change's times, so it cancels in any comparison between them.
NOMINAL_S = 0.05

_P = 257


class Reference:
    """Holds the block's inputs, made once, and times blocks on demand."""

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(257)))
        self._small = rng.integers(0, _P, (16, 16), dtype=np.int64)
        self._large = rng.integers(0, _P, (1 << 18,), dtype=np.int64)
        self.seconds: list[float] = []
        self.block()  # first call pays for lazy set-up; not kept
        self.seconds.clear()

    def _work(self) -> int:
        table: dict[int, int] = {}
        acc = 0
        for i in range(60000):
            key = i & 511
            table[key] = (table.get(key, 0) + i * 7) % _P
            acc += table[key]
        x = self._small
        for _ in range(1600):
            x = (x @ self._small) % _P
            x[0] = np.argmax(x, axis=0)
        y = self._large
        for _ in range(10):
            y = (y * 3 + 1) % _P
        return acc + int(x.sum()) + int(y[:64].sum())

    def block(self) -> float:
        """Run one block, record and return its seconds."""
        start = perf_counter()
        self._work()
        took = perf_counter() - start
        self.seconds.append(took)
        return took

    def scale(self) -> float:
        """Factor that turns a time measured in this run into nominal time."""
        return NOMINAL_S * len(self.seconds) / sum(self.seconds)
