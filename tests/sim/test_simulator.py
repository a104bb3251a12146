"""Simulator loop: scheduling, time advance, periodic timers."""

import pytest


def test_schedule_and_run_until_advances_clock(sim):
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.run_until(50)
    assert fired == [] and sim.now == 50
    sim.run_until(150)
    assert fired == [1] and sim.now == 150


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run_until(100)
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.run_until(100)
    with pytest.raises(ValueError):
        sim.schedule_at(50, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.schedule(10, fired.append, 1)
    sim.cancel(ev)
    sim.run_until(100)
    assert fired == []


def test_callback_may_schedule_more_events(sim):
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run_until(1000)
    assert seen == [0, 1, 2, 3]


def test_run_executes_until_drained(sim):
    fired = []
    sim.schedule(5, fired.append, 1)
    sim.schedule(15, fired.append, 2)
    sim.run()
    assert fired == [1, 2]
    assert sim.pending_events == 0


def test_events_processed_counter(sim):
    for i in range(4):
        sim.schedule(i, lambda: None)
    sim.run_until(10)
    assert sim.events_processed == 4


def test_periodic_timer_fires_every_period(sim):
    ticks = []
    sim.every(10, lambda: ticks.append(sim.now))
    sim.run_until(45)
    assert ticks == [10, 20, 30, 40]


def test_periodic_timer_stop(sim):
    ticks = []
    timer = sim.every(10, lambda: ticks.append(sim.now))
    sim.run_until(25)
    timer.stop()
    sim.run_until(100)
    assert ticks == [10, 20]
    assert timer.stopped


def test_periodic_timer_custom_start_delay(sim):
    ticks = []
    sim.every(10, lambda: ticks.append(sim.now), start_delay=3)
    sim.run_until(25)
    assert ticks == [3, 13, 23]


def test_periodic_timer_rejects_nonpositive_period(sim):
    with pytest.raises(ValueError):
        sim.every(0, lambda: None)
