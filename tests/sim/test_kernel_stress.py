"""Stress tests of the event-kernel fast path.

The run loop is inlined into :meth:`Simulator.run_until` (heap access,
cancelled-head dropping), so these tests hammer exactly the paths a
slip there would corrupt: same-timestamp FIFO order behind dropped
cancelled heads, cancellation-heavy counter bookkeeping, and handles
that callers keep after their event fired.
"""

from repro.sim.simulator import Simulator


def test_cancellation_heavy_counters_stay_consistent():
    sim = Simulator()
    queue = sim.queue
    fired = []
    events = [sim.schedule(i % 97, fired.append, i) for i in range(2000)]
    cancelled = 0
    for i, ev in enumerate(events):
        if i % 3 == 0:
            ev.cancel()
            ev.cancel()  # idempotent
            cancelled += 1
    del events, ev
    sim.run_until(100)
    assert len(fired) == 2000 - cancelled
    assert sim.events_processed == 2000 - cancelled
    assert queue.scheduled_total == 2000
    assert queue.cancelled_total == cancelled
    # The lifetime invariant: every scheduled event either fired, was
    # cancelled, or is still live.
    assert (queue.scheduled_total
            == sim.events_processed + queue.cancelled_total + len(queue))
    assert len(queue) == 0


def test_same_timestamp_fifo_survives_recycling():
    sim = Simulator()
    order = []
    # Cancelled heads are dropped off the heap by the run loop.
    victims = [sim.schedule(1, order.append, -1) for _ in range(50)]
    for ev in victims:
        ev.cancel()
    sim.run_until(2)
    assert order == []
    # Same-timestamp events fire in scheduling order.
    for i in range(200):
        sim.schedule_at(10, order.append, i)
    sim.run_until(10)
    assert order == list(range(200))


def test_run_until_matches_step_semantics():
    """The inlined fast path and the step() slow path fire identically."""
    def build(record):
        sim = Simulator()

        def chain(depth):
            record.append((sim.now, depth))
            if depth < 50:
                sim.schedule(0, chain, depth + 1)  # same-timestamp chain
                victim = sim.schedule(1, record.append, ("victim", depth))
                victim.cancel()

        sim.schedule(5, chain, 0)
        return sim

    fast, slow = [], []
    build(fast).run_until(100)
    stepped = build(slow)
    while stepped.step():
        pass
    assert fast == slow


def test_periodic_timer_stop_during_fire():
    sim = Simulator()
    ticks = []
    timers = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) == 3:
            timers[0].stop()

    timers.append(sim.every(10, tick))
    sim.run_until(1000)
    assert ticks == [10, 20, 30]
    assert len(sim.queue) == 0


def test_cancel_paths_share_one_implementation():
    sim = Simulator()
    queue = sim.queue
    a = sim.schedule(5, lambda: None)
    b = sim.schedule(6, lambda: None)
    assert len(queue) == 2
    a.cancel()
    assert len(queue) == 1
    queue.cancel(b)  # delegates to Event.cancel
    assert len(queue) == 0
    assert queue.cancelled_total == 2
    # Idempotent through either handle.
    a.cancel()
    queue.cancel(b)
    assert queue.cancelled_total == 2
    sim.run_until(10)
    assert sim.events_processed == 0


def test_cancel_through_stale_handle_is_harmless():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1, fired.append, 1)
    sim.run_until(10)
    assert fired == [1]
    # The event already fired; a late cancel through the retained handle
    # must not disturb live accounting or any later event.
    ev.cancel()
    assert len(sim.queue) == 0
    assert sim.queue.cancelled_total == 0
    sim.schedule(1, fired.append, 2)
    sim.run_until(20)
    assert fired == [1, 2]


def test_retained_handle_is_never_recycled():
    sim = Simulator()
    ev = sim.schedule(1, lambda: None)
    sim.run_until(5)
    # Every push builds a fresh event: a handle kept past its firing
    # never aliases a later one.
    ev2 = sim.schedule(1, lambda: None)
    assert ev2 is not ev

