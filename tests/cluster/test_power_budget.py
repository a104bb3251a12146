"""P-state caps and the fleet power-budget arbiter."""

import pytest

from repro.cluster import BudgetArbiter, FleetConfig, FleetSystem, run_fleet
from repro.cluster.power import power_ladder
from repro.cpu.topology import CHIP_WIDE, PER_CORE, Processor
from repro.system import ServerConfig
from repro.units import MS


# --------------------------------------------------------------------- #
# Processor.set_pstate_cap
# --------------------------------------------------------------------- #

def test_cap_floors_per_core_requests(sim):
    proc = Processor(sim, n_cores=2, dvfs_domain=PER_CORE)
    proc.set_pstate_cap(5)
    proc.request_pstate(0, 0)   # governor wants P0 (fastest)
    proc.request_pstate(1, 10)  # slower than the cap: untouched
    sim.run_until(5 * MS)
    assert proc.cores[0].pstate_index == 5
    assert proc.cores[1].pstate_index == 10


def test_relaxing_cap_restores_governor_intent(sim):
    proc = Processor(sim, n_cores=1, dvfs_domain=PER_CORE)
    proc.request_pstate(0, 0)
    proc.set_pstate_cap(8)
    sim.run_until(5 * MS)
    assert proc.cores[0].pstate_index == 8
    proc.set_pstate_cap(0)
    sim.run_until(10 * MS)
    assert proc.cores[0].pstate_index == 0


def test_tightening_cap_throttles_immediately(sim):
    proc = Processor(sim, n_cores=2, dvfs_domain=PER_CORE)
    proc.request_pstate(0, 0)
    proc.request_pstate(1, 2)
    sim.run_until(5 * MS)
    proc.set_pstate_cap(6)
    sim.run_until(10 * MS)
    assert [c.pstate_index for c in proc.cores] == [6, 6]
    assert proc.pstate_cap_index == 6


def test_cap_applies_to_chip_wide_domain(sim):
    proc = Processor(sim, n_cores=2, dvfs_domain=CHIP_WIDE)
    proc.request_pstate(0, 0)
    proc.request_pstate(1, 10)
    proc.set_pstate_cap(4)
    sim.run_until(5 * MS)
    # Fastest request (P0) floors at the cap, applied chip-wide.
    assert [c.pstate_index for c in proc.cores] == [4, 4]


def test_cap_is_clamped_to_table(sim):
    proc = Processor(sim, n_cores=1)
    proc.set_pstate_cap(999)
    assert proc.pstate_cap_index == len(proc.pstates) - 1
    proc.set_pstate_cap(-3)
    assert proc.pstate_cap_index == 0


# --------------------------------------------------------------------- #
# BudgetArbiter
# --------------------------------------------------------------------- #

def _arbiter(sim, n_nodes=1, **kwargs):
    ladder = power_ladder(Processor(sim, n_cores=1))
    return BudgetArbiter([ladder] * n_nodes, **kwargs)


def test_shares_split_evenly_when_idle(sim):
    arbiter = _arbiter(sim, n_nodes=2, budget_w=20.0, floor_frac=0.5)
    assert arbiter.shares([0, 0]) == [10.0, 10.0]


def test_shares_follow_load_above_the_floor(sim):
    arbiter = _arbiter(sim, n_nodes=2, budget_w=20.0, floor_frac=0.5)
    shares = arbiter.shares([3, 1])
    # Floor 5 W each; 10 W spare split 3:1.
    assert shares == [pytest.approx(12.5), pytest.approx(7.5)]
    assert sum(shares) == pytest.approx(20.0)


def test_cap_for_share_is_monotone(sim):
    arbiter = _arbiter(sim, budget_w=50.0)
    caps = [arbiter.cap_for_share(0, w) for w in (50.0, 10.0, 5.0, 0.1)]
    assert caps == sorted(caps)
    assert caps[0] == 0          # a generous share uncaps
    assert caps[-1] == len(Processor(sim, n_cores=1).pstates) - 1


def test_rebalance_respects_period(sim):
    arbiter = _arbiter(sim, budget_w=50.0, period_ns=10 * MS)
    assert arbiter.maybe_rebalance(5 * MS, [0]) is None
    assert arbiter.maybe_rebalance(10 * MS, [0]) is not None
    assert arbiter.maybe_rebalance(15 * MS, [0]) is None
    assert arbiter.maybe_rebalance(20 * MS, [0]) is not None
    assert arbiter.rebalances == 2


def test_release_lifts_all_caps():
    """A budgeted fleet caps its nodes while running and lifts every
    cap at the end of the measurement window."""
    node = ServerConfig(app="memcached", load_level="low",
                        freq_governor="performance", n_cores=1)
    fleet = FleetSystem(FleetConfig(node=node, n_nodes=2, seed=5,
                                    fleet_budget_w=1.0,
                                    budget_period_ns=5 * MS))
    result = fleet.run(20 * MS)
    assert result.rebalances > 0
    assert all(node.processor.pstate_cap_index == 0
               for node in fleet.nodes)


def test_validation(sim):
    with pytest.raises(ValueError):
        _arbiter(sim, budget_w=0.0)
    with pytest.raises(ValueError):
        _arbiter(sim, budget_w=5.0, period_ns=0)
    with pytest.raises(ValueError):
        _arbiter(sim, budget_w=5.0, floor_frac=1.5)


def test_budget_caps_fleet_energy():
    """End to end: a tight budget must cut a performance fleet's energy."""
    node = ServerConfig(app="memcached", load_level="low",
                        freq_governor="performance", n_cores=1)
    base = FleetConfig(node=node, n_nodes=2, policy="least-outstanding",
                       seed=5)
    free = run_fleet(base, 60 * MS)
    capped_cfg = base.with_overrides(fleet_budget_w=10.0,
                                     budget_period_ns=5 * MS)
    capped = run_fleet(capped_cfg, 60 * MS)
    assert capped.rebalances > 0
    assert capped.energy_j < free.energy_j
    duration_s = 60 * MS / 1e9
    assert capped.energy_j / duration_s <= 10.0 * 1.05
