"""Shard-count invariance: N worker processes, same bits.

The sharded driver (``repro.cluster.sharded``) must be a pure execution
detail: for any shard count, a fleet run produces byte-for-byte the
serial result — every field of the golden capture: latencies, per-node
completion times, float energy sums, telemetry — with faults, client
retries, health checking, and fleet power budgeting all armed at once.
This is the hard line that makes ``shards`` safe to flip on any
experiment.
"""

import dataclasses

import pytest

from repro.cluster import FleetConfig, FleetSystem, run_fleet
from repro.cluster.health import HealthPolicy
from repro.cluster.sharded import shard_bounds
from repro.faults.scenarios import make_plan
from repro.system import ServerConfig
from repro.units import MS
from repro.workload.retry import RetryPolicy
from tests.goldens import assert_same

DURATION = 20 * MS


def _everything_config(policy="power-aware"):
    """6 nodes, mixed governors, retries, a blackout fault, health
    checking, and a fleet power budget — every subsystem at once."""
    node = ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=2,
                        retry=RetryPolicy())
    return FleetConfig(
        node=node, n_nodes=6, policy=policy, seed=21,
        health=HealthPolicy(),
        fleet_budget_w=80.0, budget_period_ns=5 * MS,
        node_fault_plans={2: make_plan("node-kill", DURATION)},
        node_overrides={0: {"freq_governor": "performance"},
                        4: {"freq_governor": "ondemand"}})


def test_shard_counts_are_bit_identical():
    config = _everything_config()
    serial = FleetSystem(config).run(DURATION)
    assert serial.telemetry.total("lb_marked_down_total") > 0
    for shards in (2, 3, 6):
        sharded = FleetSystem(
            dataclasses.replace(config, shards=shards)).run(DURATION)
        assert_same(serial, sharded)
        assert sharded.perf is not None
        assert sharded.perf.shards == shards


@pytest.mark.parametrize("policy", ["round-robin", "least-outstanding"])
def test_sharded_plain_fleet_matches_serial(policy):
    """No faults/health/budget: both dispatch paths, 2 workers."""
    config = FleetConfig(node=ServerConfig(app="memcached",
                                           load_level="medium",
                                           freq_governor="nmap",
                                           n_cores=2),
                         n_nodes=4, policy=policy, seed=5, shards=2)
    serial = FleetSystem(dataclasses.replace(config, shards=1)).run(DURATION)
    assert_same(serial, FleetSystem(config).run(DURATION))


def test_run_fleet_routes_on_shards():
    config = _everything_config(policy="round-robin")
    serial = run_fleet(config, DURATION)
    sharded = run_fleet(dataclasses.replace(config, shards=3), DURATION)
    assert_same(serial, sharded)
    assert serial.perf.shards == 1
    assert sharded.perf.shards == 3


def test_shards_clamp_to_node_count():
    config = FleetConfig(n_nodes=2, shards=8, seed=1)
    assert FleetSystem(config).n_shards == 2
    result = FleetSystem(config).run(5 * MS)
    serial = FleetSystem(dataclasses.replace(config, shards=1)).run(5 * MS)
    assert_same(serial, result)
    # One node leaves one shard: the fleet runs in-process.
    fleet = FleetSystem(FleetConfig(n_nodes=1, shards=4, seed=1))
    assert len(fleet.nodes) == 1
    assert fleet.run(5 * MS).perf.shards == 1


def test_shard_bounds_partition_evenly():
    assert shard_bounds(6, 3) == [0, 2, 4, 6]
    assert shard_bounds(7, 3) == [0, 2, 4, 7]
    assert shard_bounds(3, 8) == [0, 1, 2, 3]
    assert shard_bounds(5, 1) == [0, 5]
    for n_nodes, shards in ((64, 4), (9, 2), (10, 3)):
        bounds = shard_bounds(n_nodes, shards)
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        assert sum(sizes) == n_nodes
        assert max(sizes) - min(sizes) <= 1


def test_sharded_validates_config():
    with pytest.raises(ValueError, match="shards"):
        FleetSystem(FleetConfig(shards=0))
    with pytest.raises(ValueError, match="max_stride_windows"):
        FleetSystem(FleetConfig(max_stride_windows=0))
