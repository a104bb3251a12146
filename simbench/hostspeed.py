"""Host speed probe: how fast this host runs Python code right now.

The benchmark runs on a few CPUs of a shared host whose speed drifts by
tens of percent over minutes as other tenants come and go. The probe is
a fixed walk over a table of small objects, in a shuffled order, with a
heap beside it: the allocation-free pointer chasing, attribute and dict
access and heap operations an event-driven Python simulator is made of,
over a working set larger than the CPU caches. It shares no code with
the simulator, so no change to the program moves it, and its time
follows the host's speed: timed next to each repetition, it lets the
benchmark report wall time at one reference speed (``REFERENCE_S``).

On the 2-CPU x86_64 host the benchmark was sized on, the time of a
repetition tracked this probe (then a 60,000-step walk) with a log-log slope of 0.85 (correlation
0.84) while both drifted over 1.7x, and dividing by it cut the spread of
ten-run sets from 0.26-0.39 to 0.03-0.05 of their median.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

TABLE_SIZE = 300_000
STEPS = 40_000
#: Probe seconds on the sized host when it was not contended. Any
#: constant would do: it only sets the unit, and it is the same on every
#: commit.
REFERENCE_S = 0.059


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0


class HostProbe:
    """The probe's table, built once; :meth:`seconds` times the walk."""

    def __init__(self, seed: int = 1):
        rng = random.Random(seed)
        self.table = {i: _Node(i) for i in range(TABLE_SIZE)}
        self.order = list(range(TABLE_SIZE))
        rng.shuffle(self.order)

    def _walk(self) -> int:
        table, order, n = self.table, self.order, TABLE_SIZE
        heap: list = []
        acc = 0
        for k in range(STEPS):
            node = table[order[(k * 7919) % n]]
            acc += node.key
            node.value = acc
            heapq.heappush(heap, (node.key ^ k, k))
            if len(heap) > 256:
                heapq.heappop(heap)
        return acc

    def seconds(self, passes: int = 3) -> float:
        """Median seconds of ``passes`` walks."""
        samples = []
        for _ in range(passes):
            t0 = time.perf_counter()
            self._walk()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)
