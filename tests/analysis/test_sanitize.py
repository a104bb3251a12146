"""Simulation sanitizer: every checked invariant fires when violated.

Each test plants one violation the production kernel would silently
tolerate (or mis-execute) and asserts the sanitized kernel raises a
:class:`SanitizerError` naming it. The companion parity test
(``test_sanitized_parity.py``) covers the other half of the contract:
with no violations, sanitized results are bit-identical.
"""

import pytest

from repro.analysis.sanitize import SanitizerError, SimSanitizer
from repro.cpu.power import PackageEnergy, PowerModel
from repro.cpu.pstate import PStateTable
from repro.sim.event import Event
from repro.sim.simulator import Simulator
from repro.units import GHZ


def test_repro_sanitize_env_arms_the_simulator(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert Simulator().sanitizer is None
    for value in ("1", "true", "ON", "yes"):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert isinstance(Simulator().sanitizer, SimSanitizer)
    for value in ("0", "", "off"):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert Simulator().sanitizer is None
    # Explicit flag beats the environment, both ways.
    assert Simulator(sanitize=True).sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator(sanitize=False).sanitizer is None


def test_sanitized_schedule_returns_working_handles():
    sim = Simulator(sanitize=True)
    fired = []
    handle = sim.schedule(10, fired.append, 1)
    assert isinstance(handle, Event)
    # Time and seq live in the heap entry, not on the event.
    assert sim.queue._heap[0] == (10, 0, handle)
    victim = sim.schedule_at(20, fired.append, 2)
    victim.cancel()
    assert victim.cancelled
    sim.run_until(100)
    assert fired == [1]
    assert sim.now == 100


def test_causality_violation_raises():
    sim = Simulator(sanitize=True)
    sim.run_until(50)
    # Bypass schedule()'s guard, as heap corruption would.
    sim.queue.push(10, lambda: None, ())
    with pytest.raises(SanitizerError, match="causality"):
        sim.run_until(100)


def test_unsanitized_kernel_tolerates_the_same_fault():
    """Documents why the check exists: the fast path never looks."""
    sim = Simulator()
    sim.run_until(50)
    sim.queue.push(10, lambda: None, ())
    sim.run_until(100)  # silently fires the past-time event
    assert sim.now == 100


def test_backwards_run_until_raises():
    sim = Simulator(sanitize=True)
    sim.run_until(100)
    with pytest.raises(SanitizerError, match="backwards"):
        sim.run_until(50)


def test_step_checks_causality():
    sim = Simulator(sanitize=True)
    sim.schedule(5, lambda: None)
    assert sim.step()
    sim.queue.push(1, lambda: None, ())
    with pytest.raises(SanitizerError, match="causality"):
        sim.step()


def test_lockstep_window_checks():
    sim = Simulator(sanitize=True)
    sanitizer = sim.sanitizer
    sim.run_until(100)
    sanitizer.check_lockstep_window(0, 50, 100)  # exactly at the edge: ok
    with pytest.raises(SanitizerError, match="lookahead"):
        sanitizer.check_lockstep_window(0, 0, 99)
    sanitizer.check_dispatch(0, 75, 50, 100)
    with pytest.raises(SanitizerError, match="lookahead"):
        sanitizer.check_dispatch(0, 100, 50, 100)  # end is exclusive
    with pytest.raises(SanitizerError, match="lookahead"):
        sanitizer.check_dispatch(0, 49, 50, 100)


def _package(n_cores=2):
    pstates = PStateTable.linear(1.2 * GHZ, 3.2 * GHZ, 16)
    package = PackageEnergy(PowerModel(pstates))
    for core_id in range(n_cores):
        package.meter_for(core_id).set_power(0, 2.0)
    return package


def test_energy_conservation_passes_on_consistent_totals():
    sim = Simulator(sanitize=True)
    package = _package()
    sim.run_until(1_000_000)
    cores_j = package.cores_energy_j(sim.now)
    package_j = package.total_energy_j(sim.now)
    sim.sanitizer.check_energy(package, package_j, cores_j)
    assert sim.sanitizer.energy_checks == 1


def test_energy_conservation_mismatch_raises():
    sim = Simulator(sanitize=True)
    package = _package()
    sim.run_until(1_000_000)
    cores_j = package.cores_energy_j(sim.now)
    package_j = package.total_energy_j(sim.now)
    with pytest.raises(SanitizerError, match="energy conservation"):
        sim.sanitizer.check_energy(package, package_j * 1.01, cores_j)
    with pytest.raises(SanitizerError, match="energy conservation"):
        sim.sanitizer.check_energy(package, package_j, cores_j + 1.0)


def test_energy_negative_meter_raises():
    sim = Simulator(sanitize=True)
    package = _package()
    sim.run_until(1_000_000)
    package.meter_for(0)._energy_j = -1.0
    with pytest.raises(SanitizerError, match="negative"):
        sim.sanitizer.check_energy(package, 0.0, 0.0)


def test_sanitizer_counters_advance():
    sim = Simulator(sanitize=True)
    for i in range(10):
        sim.schedule(i, lambda: None)
    sim.run_until(100)
    sanitizer = sim.sanitizer
    assert sanitizer.events_checked == 10
