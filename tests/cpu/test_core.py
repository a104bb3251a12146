"""Core execution engine: durations, preemption, frequency changes, idle."""

import pytest

from repro.cpu.core import (PRIORITY_HARDIRQ, PRIORITY_SOFTIRQ,
                            PRIORITY_TASK, Work)
from repro.units import MS, US


def run_work(sim, core, cycles, priority=PRIORITY_TASK):
    done = []
    core.submit(Work(cycles, priority,
                     on_complete=lambda w: done.append(sim.now)))
    return done


def test_work_duration_matches_frequency(sim, core):
    # 3200 cycles at 3.2 GHz (P0) = 1 µs.
    done = run_work(sim, core, 3200)
    sim.run_until(1 * MS)
    assert done == [1 * US]


def test_work_slower_at_pmin(sim, core):
    core.set_pstate_index(15)  # 1.2 GHz
    done = run_work(sim, core, 1200)
    sim.run_until(1 * MS)
    assert done == [1 * US]


def test_sequential_works_fifo(sim, core):
    order = []
    core.submit(Work(3200, PRIORITY_TASK,
                     on_complete=lambda w: order.append("a")))
    core.submit(Work(3200, PRIORITY_TASK,
                     on_complete=lambda w: order.append("b")))
    sim.run_until(1 * MS)
    assert order == ["a", "b"]
    assert core.works_completed == 2


def test_higher_priority_preempts(sim, core):
    order = []
    core.submit(Work(32000, PRIORITY_TASK,
                     on_complete=lambda w: order.append(("task", sim.now))))
    sim.run_until(2 * US)  # task is mid-flight
    core.submit(Work(3200, PRIORITY_SOFTIRQ,
                     on_complete=lambda w: order.append(("irq", sim.now))))
    sim.run_until(1 * MS)
    # softirq finishes first; the task resumes and completes 1µs later
    # than it would have (its remaining cycles are preserved exactly).
    assert order[0][0] == "irq"
    assert order[1] == ("task", 11 * US)


def test_equal_priority_does_not_preempt(sim, core):
    order = []
    core.submit(Work(3200, PRIORITY_SOFTIRQ,
                     on_complete=lambda w: order.append("first")))
    core.submit(Work(3200, PRIORITY_SOFTIRQ,
                     on_complete=lambda w: order.append("second")))
    sim.run_until(1 * MS)
    assert order == ["first", "second"]


def test_hardirq_preempts_softirq(sim, core):
    order = []
    core.submit(Work(32000, PRIORITY_SOFTIRQ,
                     on_complete=lambda w: order.append("softirq")))
    sim.run_until(1 * US)
    core.submit(Work(3200, PRIORITY_HARDIRQ,
                     on_complete=lambda w: order.append("hardirq")))
    sim.run_until(1 * MS)
    assert order == ["hardirq", "softirq"]


def test_frequency_change_rescales_in_flight_work(sim, core):
    done = run_work(sim, core, 6400)  # 2 µs at P0
    sim.run_until(1 * US)             # half done (3200 cycles left)
    core.set_pstate_index(15)         # 1.2 GHz
    sim.run_until(1 * MS)
    # Remaining 3200 cycles at 1.2 GHz = 2.667 µs -> completes at ~3.67 µs.
    assert done[0] == pytest.approx(1 * US + 3200 / 1.2, abs=2)


def test_pause_running_work_preserves_remaining_cycles(sim, core):
    work = Work(6400, PRIORITY_TASK)
    core.submit(work)
    sim.run_until(1 * US)
    assert core.pause(work)
    assert work.cycles_remaining == pytest.approx(3200, abs=5)
    assert core.current_work is None


def test_pause_queued_work(sim, core):
    first = Work(3200, PRIORITY_TASK)
    queued = Work(3200, PRIORITY_TASK)
    core.submit(first)
    core.submit(queued)
    assert core.pause(queued)
    assert core.pending_count() == 0


def test_pause_unknown_work_returns_false(sim, core):
    assert not core.pause(Work(100, PRIORITY_TASK))


def test_idle_accounting(sim, core):
    run_work(sim, core, 3200)
    sim.run_until(10 * US)
    core.finalize()
    assert core.busy_ns == 1 * US
    assert core.idle_ns == 9 * US


def test_c0_residency_includes_busy_and_c0_idle(sim, core):
    run_work(sim, core, 3200)
    sim.run_until(10 * US)
    core.finalize()
    # No idle governor: idles in CC0, so everything is C0 residency.
    assert core.c0_residency_ns == 10 * US


def test_is_idle(sim, core):
    assert core.is_idle
    core.submit(Work(3200, PRIORITY_TASK))
    assert not core.is_idle
    sim.run_until(1 * MS)
    assert core.is_idle


def test_work_validation():
    with pytest.raises(ValueError):
        Work(-1, PRIORITY_TASK)
    with pytest.raises(ValueError):
        Work(100, 7)


def test_pstate_listener_fires_on_change(sim, core):
    changes = []
    core.pstate_listeners.append(lambda c: changes.append(c.pstate_index))
    core.set_pstate_index(5)
    core.set_pstate_index(5)  # no-op
    core.set_pstate_index(0)
    assert changes == [5, 0]
