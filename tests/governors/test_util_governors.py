"""Utilization-based governors: ondemand, conservative, intel_powersave."""

import pytest

from repro.cpu.core import PRIORITY_TASK, Work
from repro.cpu.topology import Processor
from repro.governors.conservative import ConservativeGovernor
from repro.governors.intel_pstate import IntelPowersaveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.cpuidle import C6OnlyIdleGovernor
from repro.units import MS


@pytest.fixture
def proc(sim):
    return Processor(sim, n_cores=1)


def keep_busy(sim, core, duty: float, period_ns: int = 1 * MS,
              until_ns: int = 100 * MS):
    """Generate `duty`-of-max-frequency utilization with periodic batches."""
    cycles = duty * period_ns * core.pstates.p0.freq_hz / 1e9
    t = 0
    while t < until_ns:
        sim.schedule_at(t, lambda c=cycles: core.submit(
            Work(c, PRIORITY_TASK)))
        t += period_ns


def test_ondemand_jumps_to_max_when_saturated(sim, proc, settle):
    core = proc.cores[0]
    keep_busy(sim, core, duty=1.0)
    settle(proc, 10)
    gov = OndemandGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(50 * MS)
    assert core.pstate_index == 0


def test_ondemand_drops_to_min_when_idle(sim, proc):
    gov = OndemandGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(50 * MS)
    assert proc.cores[0].pstate_index == proc.pstates.max_index


def test_ondemand_proportional_midrange(sim, proc):
    core = proc.cores[0]
    gov = OndemandGovernor(sim, proc, 0)
    gov.start()
    keep_busy(sim, core, duty=0.3)
    sim.run_until(60 * MS)
    assert 0 < core.pstate_index < proc.pstates.max_index


def test_ondemand_decision_boundaries(sim, proc):
    gov = OndemandGovernor(sim, proc, 0)
    assert gov.decide(1.0) == 0
    assert gov.decide(0.96) == 0
    assert gov.decide(0.0) == proc.pstates.max_index


def test_conservative_steps_one_state(sim, proc):
    core = proc.cores[0]
    gov = ConservativeGovernor(sim, proc, 0)
    assert gov.decide(0.9) == core.pstate_index - 1 or core.pstate_index == 0
    core.set_pstate_index(8)
    assert gov.decide(0.9) == 7
    assert gov.decide(0.1) == 9
    assert gov.decide(0.5) == 8


def test_conservative_converges_down_when_idle(sim, proc):
    core = proc.cores[0]
    gov = ConservativeGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(300 * MS)
    assert core.pstate_index == proc.pstates.max_index


def test_intel_powersave_uses_c0_residency(sim, proc):
    core = proc.cores[0]
    # With C-states enabled, an idle core leaves C0 -> low utilization.
    core.idle_governor = C6OnlyIdleGovernor()
    core.idle_entry_delay_ns = 0
    from repro.cpu.core import PRIORITY_TASK as _PT, Work as _W
    core.submit(_W(1000, _PT))  # pass through busy->idle so C6 is entered
    gov = IntelPowersaveGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(50 * MS)
    assert core.pstate_index == proc.pstates.max_index


def test_intel_powersave_pins_p0_with_cstates_disabled(sim, proc, settle):
    """The Sec. 6.2 footnote: disable + intel_powersave == performance."""
    core = proc.cores[0]
    settle(proc, 15)
    core.idle_governor = None  # never leaves C0
    gov = IntelPowersaveGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(50 * MS)
    assert core.pstate_index == 0


def test_suspend_blocks_decisions(sim, proc):
    core = proc.cores[0]
    gov = OndemandGovernor(sim, proc, 0)
    gov.start()
    gov.suspend()
    sim.run_until(50 * MS)
    assert core.pstate_index == 0  # untouched initial state
    assert gov.samples > 0         # sampling continued


def test_resume_enforces_immediately(sim, proc):
    core = proc.cores[0]
    gov = OndemandGovernor(sim, proc, 0)
    gov.start()
    gov.suspend()
    sim.run_until(50 * MS)
    gov.resume(enforce=True)
    sim.run_until(51 * MS)  # only the DVFS latency, no new sample needed
    assert core.pstate_index == proc.pstates.max_index


def test_stop_cancels_timer(sim, proc):
    gov = OndemandGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(25 * MS)
    samples = gov.samples
    gov.stop()
    sim.run_until(100 * MS)
    assert gov.samples == samples


def test_parameter_validation(sim, proc):
    with pytest.raises(ValueError):
        OndemandGovernor(sim, proc, 0, up_threshold=0)
    with pytest.raises(ValueError):
        ConservativeGovernor(sim, proc, 0, up_threshold=0.2,
                             down_threshold=0.8)
    with pytest.raises(ValueError):
        IntelPowersaveGovernor(sim, proc, 0, setpoint=1.5)
    with pytest.raises(ValueError):
        OndemandGovernor(sim, proc, 0, sampling_period_ns=0)
