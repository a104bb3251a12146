"""Core idle behaviour: C-state entry, wake latency, cache penalty."""

from repro.cpu.core import PRIORITY_TASK, Work
from repro.governors.cpuidle import C6OnlyIdleGovernor, DisableIdleGovernor
from repro.units import MS, US


def settle_idle(sim, core):
    """Run a trivial work then let the core go idle."""
    core.submit(Work(1200, PRIORITY_TASK))
    sim.run_until(sim.now + 1 * MS)


def test_idle_governor_selects_cstate(sim, make_core):
    core = make_core()
    core.idle_governor = C6OnlyIdleGovernor()
    settle_idle(sim, core)
    assert core.cstate.name == "CC6"


def test_disable_governor_stays_cc0(sim, make_core):
    core = make_core()
    core.idle_governor = DisableIdleGovernor()
    settle_idle(sim, core)
    assert core.cstate.name == "CC0"


def test_wake_from_cc6_pays_exit_latency(sim, make_core):
    core = make_core(cache_penalty_fraction=0.0)
    core.idle_governor = C6OnlyIdleGovernor()
    settle_idle(sim, core)
    t0 = sim.now
    done = []
    core.submit(Work(0, PRIORITY_TASK, on_complete=lambda w: done.append(sim.now)))
    sim.run_until(sim.now + 1 * MS)
    latency = done[0] - t0
    assert latency == core.cstates.by_name("CC6").exit_latency_ns


def test_cc6_wake_includes_cache_penalty(sim, make_core):
    core = make_core(cache_penalty_fraction=1.0)
    core.idle_governor = C6OnlyIdleGovernor()
    settle_idle(sim, core)
    t0 = sim.now
    done = []
    core.submit(Work(0, PRIORITY_TASK, on_complete=lambda w: done.append(sim.now)))
    sim.run_until(sim.now + 1 * MS)
    expected = (core.cstates.by_name("CC6").exit_latency_ns
                + core.cstates.cache_refill_penalty_ns)
    assert done[0] - t0 == expected


def test_wake_from_cc0_idle_is_instant(sim, make_core):
    core = make_core()
    settle_idle(sim, core)
    t0 = sim.now
    done = []
    core.submit(Work(0, PRIORITY_TASK, on_complete=lambda w: done.append(sim.now)))
    sim.run_until(sim.now + 1 * MS)
    assert done[0] == t0


def test_idle_entry_delay_defers_deep_state(sim, make_core):
    core = make_core()
    core.idle_entry_delay_ns = 10 * US
    core.idle_governor = C6OnlyIdleGovernor()
    core.submit(Work(1200, PRIORITY_TASK))
    sim.run_until(sim.now + 2 * US)
    assert core.cstate.name == "CC0"  # still dwelling
    sim.run_until(sim.now + 20 * US)
    assert core.cstate.name == "CC6"


def test_micro_idle_never_reaches_deep_state(sim, make_core):
    core = make_core()
    core.idle_entry_delay_ns = 10 * US
    core.idle_governor = C6OnlyIdleGovernor()
    entered = []
    orig = core._enter_cstate

    def spy(cstate):
        entered.append(cstate.name)
        orig(cstate)

    core._enter_cstate = spy
    # Busy, then idle 2µs, then busy again: the 10µs dwell never elapses.
    core.submit(Work(1200, PRIORITY_TASK))
    sim.run_until(sim.now + 3 * US)
    core.submit(Work(1200, PRIORITY_TASK))
    sim.run_until(sim.now + 1 * MS)
    assert "CC6" in entered  # the final long idle does deepen
    # But no CC6 entry happened before the second work ran.
    assert entered[0] == "CC0"


def test_cstate_residency_accounting(sim, make_core):
    core = make_core()
    core.idle_governor = C6OnlyIdleGovernor()
    settle_idle(sim, core)
    core.finalize()
    assert core.cstate_residency_ns["CC6"] > 0
    total = sum(core.cstate_residency_ns.values())
    assert total == sim.now


def test_idle_end_notifies_governor(sim, make_core):
    seen = []

    class Recorder(C6OnlyIdleGovernor):
        def on_idle_end(self, core, idle_duration_ns):
            seen.append(idle_duration_ns)

    core = make_core()
    core.idle_governor = Recorder()
    settle_idle(sim, core)
    core.submit(Work(1200, PRIORITY_TASK))
    sim.run_until(sim.now + 1 * MS)
    assert len(seen) >= 1
    # The construction-time idle ends with duration 0; real ones are >0.
    assert any(d > 0 for d in seen)
