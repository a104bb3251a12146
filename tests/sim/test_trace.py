"""Trace recorder behaviour."""

import numpy as np
import pytest

from repro.faults.scenarios import make_plan
from repro.p4.library import drop_program
from repro.sim.trace import TraceRecorder
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def test_record_and_read_back():
    tr = TraceRecorder()
    tr.record("pstate", 10, 3)
    tr.record("pstate", 20, 0)
    assert tr.samples("pstate") == [(10, 3), (20, 0)]
    times, values = tr.to_arrays("pstate")
    assert times.tolist() == [10, 20]
    assert values.tolist() == [3.0, 0.0]


def test_disabled_recorder_drops_samples():
    """With ``trace=False`` no component holds the run's recorder, so it
    stays empty even where faults and P4 drops would record."""
    base = ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=2, seed=1, trace=False)
    acl = drop_program("session", [0])
    for overrides in ({"fault_plan": make_plan("throttle", 20 * MS)},
                      {"n_flows": 4, "pipeline": acl}):
        system = ServerSystem(base.with_overrides(**overrides))
        assert system.sim.trace is None
        result = system.run(20 * MS)
        assert list(result.trace.channels()) == [], overrides


def test_unknown_channel_is_empty():
    tr = TraceRecorder()
    assert tr.samples("nope") == []
    assert tr.to_arrays("nope")[0].size == 0


def test_default_value_is_one():
    tr = TraceRecorder()
    tr.record("wake", 5)
    assert tr.to_arrays("wake")[1].tolist() == [1.0]


def test_to_arrays_returns_typed_pair():
    tr = TraceRecorder()
    tr.record("c", 10, 2)
    tr.record("c", 20, 5)
    times, values = tr.to_arrays("c")
    assert times.dtype == np.int64 and values.dtype == float
    assert times.tolist() == [10, 20]
    assert values.tolist() == [2.0, 5.0]


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
    assert tr.to_arrays("c")[1].tolist() == [1.0, 5.0]
