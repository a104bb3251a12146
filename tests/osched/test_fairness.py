"""Scheduler fairness: the property NMAP-simpl's starvation story rests on.

ksoftirqd runs at the same priority as the application (Sec. 2.1), so
under sustained deferred packet processing each side gets about half the
CPU. These tests measure actual CPU shares.
"""

import pytest

from repro.cpu.core import PRIORITY_TASK, Work
from repro.osched.scheduler import CoreScheduler
from repro.units import MS
from tests.osched.callback import CallbackThread


class GreedyThread(CallbackThread):
    """Always has another fixed-size chunk; accumulates executed cycles."""

    def __init__(self, name, chunk_cycles):
        self.executed = 0.0

        def supply():
            return Work(chunk_cycles, PRIORITY_TASK,
                        on_complete=self._done, label=name)

        super().__init__(name, supply)
        self._chunk = chunk_cycles

    def _done(self, work):
        self.executed += self._chunk


def test_two_greedy_threads_split_cpu_evenly(sim, core):
    sched = CoreScheduler(sim, core, timeslice_ns=1 * MS)
    a, b = GreedyThread("a", 320_000), GreedyThread("b", 320_000)
    sched.add_thread(a)
    sched.add_thread(b)
    a.wake()
    b.wake()
    sim.run_until(100 * MS)
    total = a.executed + b.executed
    assert total > 0
    assert a.executed / total == pytest.approx(0.5, abs=0.02)


def test_unequal_chunk_sizes_still_fair(sim, core):
    """Round-robin per chunk: big-chunk threads get proportionally more
    per turn but turns alternate; with chunks far below the slice the
    imbalance is bounded by the chunk ratio."""
    sched = CoreScheduler(sim, core, timeslice_ns=1 * MS)
    small = GreedyThread("small", 160_000)
    big = GreedyThread("big", 480_000)
    sched.add_thread(small)
    sched.add_thread(big)
    small.wake()
    big.wake()
    sim.run_until(100 * MS)
    share = big.executed / (small.executed + big.executed)
    assert share == pytest.approx(0.75, abs=0.05)


def test_three_way_split(sim, core):
    sched = CoreScheduler(sim, core, timeslice_ns=1 * MS)
    threads = [GreedyThread(f"t{i}", 320_000) for i in range(3)]
    for t in threads:
        sched.add_thread(t)
        t.wake()
    sim.run_until(90 * MS)
    total = sum(t.executed for t in threads)
    for t in threads:
        assert t.executed / total == pytest.approx(1 / 3, abs=0.03)
