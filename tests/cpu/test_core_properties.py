"""Property-based tests of the core execution engine's invariants."""

from hypothesis import given, settings, strategies as st

from repro.cpu.core import (PRIORITY_HARDIRQ, PRIORITY_SOFTIRQ,
                            PRIORITY_TASK, Core, Work)
from repro.cpu.pstate import PStateTable
from repro.sim.simulator import Simulator
from repro.units import GHZ, MS, S

work_strategy = st.tuples(
    st.floats(min_value=1, max_value=500_000),          # cycles
    st.sampled_from([PRIORITY_HARDIRQ, PRIORITY_SOFTIRQ, PRIORITY_TASK]),
    st.integers(min_value=0, max_value=2_000_000))      # submit time (ns)


def build_core():
    sim = Simulator()
    table = PStateTable.linear(1.2 * GHZ, 3.2 * GHZ, 16)
    core = Core(sim, 0, table)
    core.idle_reselect_period_ns = 0
    core.idle_entry_delay_ns = 0
    return sim, core


@settings(max_examples=40, deadline=None)
@given(st.lists(work_strategy, min_size=1, max_size=25))
def test_no_work_is_ever_lost(specs):
    sim, core = build_core()
    completed = []
    for cycles, priority, t in specs:
        sim.schedule_at(t, lambda c=cycles, p=priority: core.submit(
            Work(c, p, on_complete=lambda w: completed.append(w))))
    sim.run_until(1 * S)
    assert len(completed) == core.works_completed == len(specs)
    assert all(w.cycles_remaining == 0 for w in completed)


@settings(max_examples=40, deadline=None)
@given(st.lists(work_strategy, min_size=1, max_size=25),
       st.integers(min_value=0, max_value=15))
def test_busy_time_equals_total_cycles_over_frequency(specs, pstate):
    sim, core = build_core()
    core.set_pstate_index(pstate)
    for cycles, priority, t in specs:
        sim.schedule_at(t, lambda c=cycles, p=priority: core.submit(
            Work(c, p)))
    sim.run_until(1 * S)
    core.finalize()
    total_cycles = sum(c for c, _, _ in specs)
    expected_busy = total_cycles / core.frequency_hz * S
    # Each work's duration rounds to whole ns (<= 1 ns error per work).
    assert abs(core.busy_ns - expected_busy) <= len(specs) + 1


@settings(max_examples=40, deadline=None)
@given(st.lists(work_strategy, min_size=1, max_size=25))
def test_busy_plus_idle_equals_elapsed(specs):
    sim, core = build_core()
    for cycles, priority, t in specs:
        sim.schedule_at(t, lambda c=cycles, p=priority: core.submit(
            Work(c, p)))
    sim.run_until(100 * MS)
    core.finalize()
    assert core.busy_ns + core.idle_ns == sim.now


@settings(max_examples=30, deadline=None)
@given(st.lists(work_strategy, min_size=2, max_size=20),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2_500_000),
                          st.integers(min_value=0, max_value=15)),
                min_size=1, max_size=8))
def test_work_survives_random_frequency_changes(specs, freq_changes):
    sim, core = build_core()
    completed = []
    for cycles, priority, t in specs:
        sim.schedule_at(t, lambda c=cycles, p=priority: core.submit(
            Work(c, p, on_complete=lambda w: completed.append(w))))
    for t, idx in freq_changes:
        sim.schedule_at(t, core.set_pstate_index, idx)
    sim.run_until(1 * S)
    assert len(completed) == core.works_completed == len(specs)
