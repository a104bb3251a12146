"""Round-robin task scheduler."""

import pytest

from repro.cpu.core import PRIORITY_SOFTIRQ, PRIORITY_TASK, Work
from repro.osched.scheduler import CoreScheduler
from repro.osched.thread import RUNNING, SLEEPING
from repro.units import MS, US
from tests.osched.callback import CallbackThread


def make_thread(name, chunks):
    """A thread that produces `chunks` works then sleeps."""
    supply = list(chunks)

    def next_work():
        if supply:
            return Work(supply.pop(0), PRIORITY_TASK, label=name)
        return None

    return CallbackThread(name, next_work)



def one_shot_thread(name, work):
    """A thread that yields one Work then sleeps forever."""
    box = [work]

    def supply():
        return box.pop() if box else None

    return CallbackThread(name, supply)

@pytest.fixture
def sched(sim, core):
    return CoreScheduler(sim, core, timeslice_ns=1 * MS)


def test_wake_runs_thread_to_completion(sim, sched):
    t = make_thread("a", [3200, 3200])
    sched.add_thread(t)
    t.wake()
    assert t.state == RUNNING
    sim.run_until(1 * MS)
    assert t.state == SLEEPING
    assert t.sleep_count == 1


def test_two_threads_share_in_round_robin(sim, sched):
    order = []

    def make(name):
        count = [3]

        def supply():
            if count[0] == 0:
                return None
            count[0] -= 1
            return Work(3200, PRIORITY_TASK,
                        on_complete=lambda w: order.append(name))

        return CallbackThread(name, supply)

    a, b = make("a"), make("b")
    sched.add_thread(a)
    sched.add_thread(b)
    a.wake()
    b.wake()
    sim.run_until(10 * MS)
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_timeslice_preempts_long_running_thread(sim, core, sched):
    order = []
    long_thread = one_shot_thread("long", Work(
        32_000_000, PRIORITY_TASK,  # 10 ms at P0
        on_complete=lambda w: order.append("long")))
    short = make_thread("short", [3200])
    short.next_work_orig = short._supply

    def short_supply():
        w = short.next_work_orig()
        if w is not None:
            w.on_complete = lambda _: order.append("short")
        return w

    short._supply = short_supply
    sched.add_thread(long_thread)
    sched.add_thread(short)
    long_thread.wake()
    sim.run_until(100 * US)
    short.wake()
    sim.run_until(20 * MS)
    # The short thread got the CPU at the next slice boundary, well before
    # the long work finished.
    assert order == ["short", "long"]
    assert sched.preemptions >= 1


def test_sole_thread_is_not_preempted(sim, sched):
    done = []
    t = one_shot_thread("solo", Work(
        32_000_000, PRIORITY_TASK,
        on_complete=lambda w: done.append(sim.now)))
    sched.add_thread(t)
    t.wake()
    sim.run_until(20 * MS)
    assert done == [10 * MS]
    assert sched.preemptions == 0


def test_wake_while_runnable_is_noop(sim, sched):
    t = make_thread("a", [320_000])
    sched.add_thread(t)
    t.wake()
    t.wake()
    assert t.wake_count == 1


def test_softirq_preemption_is_transparent_to_scheduler(sim, core, sched):
    done = []
    t = one_shot_thread("app", Work(
        3_200_000, PRIORITY_TASK,  # 1 ms
        on_complete=lambda w: done.append(sim.now)))
    sched.add_thread(t)
    t.wake()
    sim.run_until(100 * US)
    core.submit(Work(320_000, PRIORITY_SOFTIRQ))  # 100 µs of softirq
    sim.run_until(10 * MS)
    # The task work completes 100 µs later than it would have.
    assert done[0] == pytest.approx(1.1 * MS, abs=2 * US)


def test_thread_cannot_attach_twice(sim, core, sched):
    t = make_thread("a", [])
    sched.add_thread(t)
    with pytest.raises(ValueError):
        sched.add_thread(t)


def test_foreign_thread_wake_rejected(sim, core, sched):
    other = CoreScheduler(sim, core, timeslice_ns=1 * MS)
    t = make_thread("a", [100])
    other.add_thread(t)
    with pytest.raises(ValueError):
        sched.wake(t)


def test_unattached_thread_wake_raises():
    t = make_thread("a", [100])
    with pytest.raises(RuntimeError):
        t.wake()


def test_scheduler_rejects_non_task_work(sim, sched):
    t = CallbackThread("bad", lambda: Work(100, PRIORITY_SOFTIRQ))
    sched.add_thread(t)
    with pytest.raises(ValueError):
        t.wake()
