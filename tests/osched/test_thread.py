"""SimThread mechanics."""

import pytest

from repro.cpu.core import PRIORITY_TASK, Work
from repro.osched.thread import SimThread
from tests.osched.callback import CallbackThread


def test_base_thread_next_work_abstract():
    with pytest.raises(NotImplementedError):
        SimThread("x").next_work()


def test_park_rejects_double_park():
    t = CallbackThread("x", lambda: None)
    t.park(Work(10, PRIORITY_TASK))
    with pytest.raises(RuntimeError):
        t.park(Work(10, PRIORITY_TASK))


def test_listeners_fire_in_order():
    t = CallbackThread("x", lambda: None)
    order = []
    t.wake_listeners.append(lambda th: order.append("a"))
    t.wake_listeners.append(lambda th: order.append("b"))
    t.notify_wake()
    assert order == ["a", "b"]
    assert t.wake_count == 1


def test_sleep_listeners_and_count():
    t = CallbackThread("x", lambda: None)
    seen = []
    t.sleep_listeners.append(seen.append)
    t.notify_sleep()
    t.notify_sleep()
    assert seen == [t, t]
    assert t.sleep_count == 2
