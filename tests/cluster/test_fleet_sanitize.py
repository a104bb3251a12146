"""Sanitized fleet runs: clean parity plus seeded lookahead violations.

The conservative-lockstep invariants (`no node outruns its window`, `a
window only dispatches its own arrivals`) are exactly what the fleet's
correctness argument rests on. A sanitized fleet must (a) pass its own
checks on a healthy run while staying bit-identical, and (b) catch each
invariant when a violation is planted.
"""

import pytest

from repro.analysis.sanitize import SanitizerError
from repro.cluster import FleetConfig, run_fleet
from repro.cluster.fleet import FleetSystem
from repro.system import ServerConfig
from repro.units import MS
from tests.goldens import assert_same

DURATION = 20 * MS


def _fleet_config(**kwargs):
    node = ServerConfig(app="memcached", load_level="low",
                        freq_governor="ondemand", n_cores=2)
    kwargs.setdefault("n_nodes", 2)
    kwargs.setdefault("policy", "round-robin")
    return FleetConfig(node=node, seed=3, **kwargs)


@pytest.mark.parametrize("policy", ["round-robin", "least-outstanding",
                                    "p2c", "power-aware"])
def test_sanitized_fleet_is_bit_identical(monkeypatch, policy):
    """Both dispatch paths (feedback-free and per-window) under checks,
    every feedback dispatch checked against a live read."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    base = run_fleet(_fleet_config(policy=policy), DURATION)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    checked = run_fleet(_fleet_config(policy=policy), DURATION)

    assert_same(base, checked)


def test_sanitized_fleet_arms_every_node(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    fleet = FleetSystem(_fleet_config())
    assert all(node.sim.sanitizer is not None for node in fleet.nodes)
    fleet.run(DURATION)
    for node in fleet.nodes:
        assert node.sim.sanitizer.windows_checked > 0
        assert node.sim.sanitizer.energy_checks == 1


def test_lookahead_violation_caught(monkeypatch):
    """A node advanced past its window start raises at the window check."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    fleet = FleetSystem(_fleet_config())
    # Plant the violation: node 1's window loop overshoots by one
    # window, as a buggy lookahead/window computation would.
    overshoot = fleet.config.lb_wire_latency_ns
    sanitized_run_until = fleet.nodes[1].sim.run_until
    fleet.nodes[1].sim.run_until = \
        lambda t_end: sanitized_run_until(t_end + overshoot)
    with pytest.raises(SanitizerError, match="lookahead"):
        fleet.run(DURATION)


def test_dispatch_outside_window_caught(monkeypatch):
    """A balancer reading arrivals it cannot have seen yet raises."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    fleet = FleetSystem(_fleet_config(policy="least-outstanding"))
    sanitizer = fleet.nodes[0].sim.sanitizer
    window = fleet.config.lb_wire_latency_ns
    # In-window dispatches are fine; out-of-window ones raise.
    sanitizer.check_dispatch(0, window // 2, 0, window)
    with pytest.raises(SanitizerError, match="could not yet have observed"):
        sanitizer.check_dispatch(0, window + 1, 0, window)


@pytest.mark.parametrize("shards", [1, 2])
def test_stale_dispatch_snapshot_caught(monkeypatch, shards):
    """A balancer that skips its window read dispatches against keys a
    live read of the node contradicts."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    fleet = FleetSystem(_fleet_config(policy="power-aware", shards=shards))
    refresh = fleet.policy.refresh
    reads = []

    def read_once():
        # Keep the snapshot the policy takes when bound, for the whole run.
        if not reads:
            reads.append(True)
            refresh()

    fleet.policy.refresh = read_once
    with pytest.raises(SanitizerError, match="stale dispatch snapshot"):
        fleet.run(DURATION)


def test_unsanitized_fleet_has_no_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    fleet = FleetSystem(_fleet_config())
    assert all(node.sim.sanitizer is None for node in fleet.nodes)


# -- periodic per-window energy-conservation variant ------------------------ #

def test_energy_window_checks_are_off_by_default(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.delenv("REPRO_SANITIZE_ENERGY_WINDOWS", raising=False)
    fleet = FleetSystem(_fleet_config())
    fleet.run(DURATION)
    for node in fleet.nodes:
        assert not node.sim.sanitizer.periodic_energy
        assert node.sim.sanitizer.energy_window_checks == 0


@pytest.mark.parametrize("policy", ["round-robin", "least-outstanding"])
def test_energy_window_checks_run_when_armed(monkeypatch, policy):
    """Both dispatch paths check every node each lockstep window —
    read-only, so results stay bit-identical to the unsanitized run."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    base = run_fleet(_fleet_config(policy=policy), DURATION)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_ENERGY_WINDOWS", "1")
    fleet = FleetSystem(_fleet_config(policy=policy))
    checked = fleet.run(DURATION)
    for node in fleet.nodes:
        assert (node.sim.sanitizer.energy_window_checks
                == checked.lockstep_windows)
    assert_same(base, checked)


def test_energy_window_violations_raise(monkeypatch):
    from repro.cpu.power import EnergyMeter, PackageEnergy
    from repro.sim.simulator import Simulator

    monkeypatch.setenv("REPRO_SANITIZE_ENERGY_WINDOWS", "1")
    sanitizer = Simulator(sanitize=True).sanitizer
    package = PackageEnergy.__new__(PackageEnergy)
    package.core_meters = {0: EnergyMeter("core0")}
    package._uncore = EnergyMeter("uncore")
    sanitizer.check_energy_window(package, 1000)

    # Checkpoint past the window end.
    package.core_meters[0]._last_time = 5000
    with pytest.raises(SanitizerError, match="past the window end"):
        sanitizer.check_energy_window(package, 2000)
    package.core_meters[0]._last_time = 0

    # Negative power draw.
    package._uncore._power_w = -1.0
    with pytest.raises(SanitizerError, match="negative"):
        sanitizer.check_energy_window(package, 2000)
    package._uncore._power_w = 0.0

    # Energy going backwards between windows.
    package.core_meters[0]._energy_j = 10.0
    sanitizer.check_energy_window(package, 3000)
    package.core_meters[0]._energy_j = 9.0
    with pytest.raises(SanitizerError, match="energy went backwards"):
        sanitizer.check_energy_window(package, 4000)
