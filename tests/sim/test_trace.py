"""Trace recorder behaviour."""

import numpy as np
import pytest

from repro.sim.trace import TraceRecorder


def test_record_and_read_back():
    tr = TraceRecorder()
    tr.record("pstate", 10, 3)
    tr.record("pstate", 20, 0)
    assert tr.samples("pstate") == [(10, 3), (20, 0)]
    assert tr.times("pstate").tolist() == [10, 20]
    assert tr.values("pstate").tolist() == [3.0, 0.0]


def test_disabled_recorder_drops_samples():
    tr = TraceRecorder(enabled=False)
    tr.record("x", 1)
    assert tr.samples("x") == []
    assert "x" not in tr


def test_unknown_channel_is_empty():
    tr = TraceRecorder()
    assert tr.samples("nope") == []
    assert tr.times("nope").size == 0


def test_clear():
    tr = TraceRecorder()
    tr.record("a", 1, 1)
    tr.clear()
    assert list(tr.channels()) == []


def test_default_value_is_one():
    tr = TraceRecorder()
    tr.record("wake", 5)
    assert tr.values("wake").tolist() == [1.0]


def test_disabled_swaps_record_method():
    """The off switch is a bound-method swap, not a per-call branch."""
    tr = TraceRecorder(enabled=False)
    assert tr.record.__func__ is TraceRecorder._record_disabled
    tr.enabled = True
    assert "record" not in tr.__dict__  # class method shines through
    tr.record("x", 1)
    assert tr.samples("x") == [(1, 1)]
    tr.enabled = False
    tr.record("x", 2)
    assert tr.samples("x") == [(1, 1)]


def test_to_arrays_returns_typed_pair():
    tr = TraceRecorder()
    tr.record("c", 10, 2)
    tr.record("c", 20, 5)
    times, values = tr.to_arrays("c")
    assert times.dtype == np.int64 and values.dtype == float
    assert times.tolist() == [10, 20]
    assert values.tolist() == [2.0, 5.0]


def test_to_arrays_memoizes_and_invalidates_on_append():
    tr = TraceRecorder()
    tr.record("c", 1, 1)
    first = tr.to_arrays("c")
    assert tr.to_arrays("c")[0] is first[0]  # cached
    tr.record("c", 2, 1)
    times, _ = tr.to_arrays("c")
    assert times.tolist() == [1, 2]  # cache refreshed by length change


def test_recorder_pickles_without_derived_state():
    import pickle
    tr = TraceRecorder(enabled=False)
    tr.enabled = True
    tr.record("c", 7, 3)
    tr.to_arrays("c")  # populate the memo
    clone = pickle.loads(pickle.dumps(tr))
    assert clone.enabled is True
    assert clone.samples("c") == [(7, 3)]
    assert clone.to_arrays("c")[0].tolist() == [7]
    off = pickle.loads(pickle.dumps(TraceRecorder(enabled=False)))
    assert off.enabled is False
    off.record("x", 1)
    assert off.samples("x") == []


def test_samples_cost_at_most_20_bytes_each():
    """Packed int64 columns: 16 bytes a sample plus the arrays'
    over-allocation, where a (time, value) tuple costs ~94 bytes."""
    import tracemalloc
    tr = TraceRecorder()
    tr.record("c", 0, 0)  # the channel itself is not a per-sample cost
    n = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            tr.record("c", 1_000_000 + i, i & 7)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tr.samples("c")) == n + 1
    assert grown / n <= 20


def test_pickle_round_trip_keeps_int_values_in_order():
    import pickle
    tr = TraceRecorder()
    pairs = [(5, 3), (5, 0), (9, 2**40), (12, -1)]
    for t, v in pairs:
        tr.record("c", t, v)
    clone = pickle.loads(pickle.dumps(tr))
    assert clone.samples("c") == pairs
    assert all(type(t) is int and type(v) is int
               for t, v in clone.samples("c"))


def test_non_integer_value_raises_and_leaves_channel_unchanged():
    tr = TraceRecorder()
    with pytest.raises(TypeError):
        tr.record("c", 1, 0.5)
    assert "c" not in tr
    tr.record("c", 2, 4)
    with pytest.raises(TypeError):
        tr.record("c", 3, "on")
    assert tr.samples("c") == [(2, 4)]


def test_to_arrays_copies_so_recording_continues():
    """A live view of a column would make the next append raise
    ``BufferError``."""
    tr = TraceRecorder()
    tr.record("c", 1, 1)
    times, values = tr.to_arrays("c")
    tr.record("c", 2, 5)
    assert times.tolist() == [1] and values.tolist() == [1.0]
    assert tr.values("c").tolist() == [1.0, 5.0]
