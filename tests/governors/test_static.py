"""Static frequency governors."""

import pytest

from repro.cpu.topology import Processor
from repro.governors.static import (PerformanceGovernor, PowersaveGovernor,
                                    UserspaceGovernor)
from repro.units import MS


@pytest.fixture
def proc(sim):
    return Processor(sim, n_cores=2)


def test_performance_pins_p0(sim, proc, settle):
    settle(proc, 10)
    gov = PerformanceGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(5 * MS)
    assert proc.cores[0].pstate_index == 0
    assert proc.cores[1].pstate_index == 10  # untouched


def test_powersave_pins_pmin(sim, proc):
    gov = PowersaveGovernor(sim, proc, 0)
    gov.start()
    sim.run_until(5 * MS)
    assert proc.cores[0].pstate_index == proc.pstates.max_index


def test_userspace_pins_requested_state(sim, proc):
    gov = UserspaceGovernor(sim, proc, 0, pstate_index=7)
    gov.start()
    sim.run_until(5 * MS)
    assert proc.cores[0].pstate_index == 7


def test_userspace_runtime_change(sim, proc):
    gov = UserspaceGovernor(sim, proc, 0, pstate_index=7)
    gov.start()
    sim.run_until(5 * MS)
    gov.set_pstate(3)
    sim.run_until(10 * MS)
    assert proc.cores[0].pstate_index == 3


def test_userspace_clamps(sim, proc):
    gov = UserspaceGovernor(sim, proc, 0, pstate_index=99)
    assert gov.pstate_index == proc.pstates.max_index
