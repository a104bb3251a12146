"""Fleet co-simulation: conservation, determinism, telemetry, validation."""

import multiprocessing

import numpy as np
import pytest

from repro.cluster import FleetConfig, FleetSystem, run_fleet
from repro.system import ServerConfig
from repro.units import MS
from tests.goldens import assert_same


def _node(**kwargs):
    kwargs.setdefault("app", "memcached")
    kwargs.setdefault("load_level", "low")
    kwargs.setdefault("freq_governor", "performance")
    kwargs.setdefault("n_cores", 1)
    return ServerConfig(**kwargs)


@pytest.fixture(scope="module", params=["round-robin", "least-outstanding"])
def fleet_result(request):
    config = FleetConfig(node=_node(), n_nodes=3, policy=request.param,
                         seed=9)
    return run_fleet(config, 50 * MS)


def test_every_arrival_is_dispatched_exactly_once(fleet_result):
    assert sum(fleet_result.dispatched) == fleet_result.sent
    assert fleet_result.sent > 0
    assert all(r.sent == d for r, d in zip(fleet_result.node_results,
                                           fleet_result.dispatched))
    assert fleet_result.completed + fleet_result.dropped == fleet_result.sent
    assert len(fleet_result.latencies_ns) == fleet_result.completed


def test_lockstep_window_count(fleet_result):
    window = fleet_result.config.lb_wire_latency_ns
    expected = -(-50 * MS // window)  # ceil division
    assert fleet_result.lockstep_windows == expected


def test_fleet_latencies_concatenate_node_major(fleet_result):
    parts = [r.latencies_ns for r in fleet_result.node_results]
    assert np.array_equal(fleet_result.latencies_ns, np.concatenate(parts))
    assert fleet_result.energy.package_j == pytest.approx(
        sum(r.energy.package_j for r in fleet_result.node_results))


def test_rerun_is_bit_identical(fleet_result):
    assert_same(run_fleet(fleet_result.config, 50 * MS), fleet_result)


def test_telemetry_carries_node_labels_and_fleet_instruments(fleet_result):
    reg = fleet_result.telemetry
    for i, count in enumerate(fleet_result.dispatched):
        assert reg.value("lb_dispatched_total", subsystem="fleet",
                         node=str(i)) == count
    assert reg.value("lockstep_windows_total",
                     subsystem="fleet") == fleet_result.lockstep_windows
    assert reg.value("budget_rebalances_total", subsystem="fleet") == 0
    # Per-node registries merge under a node label: the summed workload
    # counter matches the fleet's completed count.
    total = sum(
        reg.value("requests_completed_total", subsystem="workload",
                  node=str(i))
        for i in range(fleet_result.config.n_nodes))
    assert total == fleet_result.completed


def test_nodes_draw_distinct_service_randomness():
    config = FleetConfig(node=_node(), n_nodes=2, seed=9)
    result = run_fleet(config, 50 * MS)
    a, b = result.node_results
    assert not np.array_equal(a.latencies_ns[:200], b.latencies_ns[:200])


def test_single_session_pins_round_robin_to_one_node():
    config = FleetConfig(node=_node(), n_nodes=3, policy="round-robin",
                         n_sessions=1, seed=9)
    result = run_fleet(config, 20 * MS)
    assert result.dispatched[0] == result.sent
    assert result.dispatched[1:] == [0, 0]


def test_validation_errors():
    with pytest.raises(ValueError, match="at least one node"):
        FleetSystem(FleetConfig(node=_node(), n_nodes=0))
    with pytest.raises(ValueError, match="unknown dispatch policy"):
        FleetSystem(FleetConfig(node=_node(), policy="coin-flip"))
    # A sharded fleet rejects it at construction too, before any worker
    # process starts.
    with pytest.raises(ValueError, match="unknown dispatch policy"):
        FleetSystem(FleetConfig(node=_node(), policy="coin-flip", n_nodes=2,
                                shards=2))
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="lb_wire_latency_ns"):
        FleetSystem(FleetConfig(node=_node(),
                                lb_wire_latency_ns=_node().wire_latency_ns
                                * 2))
    with pytest.raises(ValueError, match="lb_wire_latency_ns"):
        FleetSystem(FleetConfig(node=_node(), lb_wire_latency_ns=0))
    with pytest.raises(ValueError, match="at least one session"):
        FleetSystem(FleetConfig(node=_node(), n_sessions=0))
    with pytest.raises(ValueError, match="session_skew"):
        FleetSystem(FleetConfig(node=_node(), session_skew=-0.1))
    with pytest.raises(ValueError, match="node_id"):
        FleetConfig(node=_node(), n_nodes=2).node_config(2)
    with pytest.raises(ValueError, match="duration"):
        FleetSystem(FleetConfig(node=_node())).run(0)


@pytest.mark.parametrize("shards", [1, 2])
def test_bad_node_override_rejected_at_construction(shards):
    # Every node's effective config is checked when the fleet is built,
    # at any shard count: a sharded fleet used to build it only inside
    # a worker process, at run().
    config = FleetConfig(node=ServerConfig(app="memcached", n_cores=2),
                         n_nodes=4, shards=shards,
                         node_overrides={3: {"freq_governor": "bogus"}})
    with pytest.raises(ValueError,
                       match="unknown frequency governor 'bogus'"):
        FleetSystem(config)
    assert multiprocessing.active_children() == []
    bad_rate = FleetConfig(node=ServerConfig(app="memcached", n_cores=2),
                           n_nodes=4, shards=shards,
                           node_overrides={1: {"trace_sample_rate": 2.0}})
    with pytest.raises(ValueError, match="trace_sample_rate"):
        FleetSystem(bad_rate)
