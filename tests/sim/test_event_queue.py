"""EventQueue ordering, cancellation, and FIFO tie-breaking."""

from hypothesis import given, strategies as st

from repro.sim.event import EventQueue


def drain(queue):
    out = []
    while True:
        ev = queue.pop()
        if ev is None:
            return out
        out.append(ev)


def test_pop_orders_by_time():
    q = EventQueue()
    q.push(30, lambda: None)
    q.push(10, lambda: None)
    q.push(20, lambda: None)
    assert [ev.time for ev in drain(q)] == [10, 20, 30]


def test_same_time_events_preserve_fifo_order():
    q = EventQueue()
    first = q.push(5, lambda: None)
    second = q.push(5, lambda: None)
    popped = drain(q)
    assert popped == [first, second]


def test_cancel_prevents_pop():
    q = EventQueue()
    keep = q.push(1, lambda: None)
    drop = q.push(2, lambda: None)
    q.cancel(drop)
    assert drain(q) == [keep]


def test_cancel_is_idempotent_for_len():
    q = EventQueue()
    ev = q.push(1, lambda: None)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 0


def test_len_counts_only_live_events():
    q = EventQueue()
    events = [q.push(i, lambda: None) for i in range(5)]
    q.cancel(events[2])
    assert len(q) == 4


def test_peek_time_skips_cancelled_head():
    q = EventQueue()
    head = q.push(1, lambda: None)
    q.push(7, lambda: None)
    q.cancel(head)
    assert q.peek_time() == 7


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None
    assert EventQueue().peek_time() is None


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=200))
def test_pop_sequence_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = [ev.time for ev in drain(q)]
    assert popped == sorted(times)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=2,
                max_size=100),
       st.data())
def test_cancelled_subset_never_pops(times, data):
    q = EventQueue()
    events = [q.push(t, lambda: None) for t in times]
    to_cancel = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(events) - 1)))
    for idx in to_cancel:
        q.cancel(events[idx])
    popped = set(id(ev) for ev in drain(q))
    for idx, ev in enumerate(events):
        assert (id(ev) in popped) == (idx not in to_cancel)
