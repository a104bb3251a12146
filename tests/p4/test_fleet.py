"""Pipelines in fleets: per-node programs via node_overrides.

``pipeline``/``flow_weights`` are plain ServerConfig fields, so a fleet
can mix programmed and unprogrammed nodes exactly as it mixes governors
and datapaths — and sharded execution must stay bit-identical to the
serial fleet at every shard count that divides the node count.
"""

import numpy as np

from repro.cluster import FleetConfig, FleetSystem
from repro.p4 import (drop_program, flow_affine_program, identity_program,
                      meter_program)
from repro.system import ServerConfig
from repro.units import MS

DURATION = 20 * MS

SKEW = (8, 4, 2, 2, 1, 1, 1, 1)


def _mixed_config(**overrides):
    node = ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=2, n_flows=8,
                        flow_weights=SKEW)
    base = dict(
        node=node, n_nodes=6, policy="round-robin", seed=13,
        node_overrides={
            1: {"pipeline": flow_affine_program(2, SKEW)},
            2: {"pipeline": meter_program(rate_pps=40_000.0,
                                          burst_pkts=32)},
            3: {"pipeline": identity_program()},
            4: {"pipeline": drop_program("session", [0]),
                "datapath": "poll", "freq_governor": "performance"},
            5: {"datapath": "metronome", "freq_governor": "ondemand"},
        })
    base.update(overrides)
    return FleetConfig(**base)


def test_node_overrides_select_programs():
    config = _mixed_config()
    assert config.node_config(0).pipeline is None
    assert config.node_config(1).pipeline.table_names() == \
        ("flow_affinity",)
    assert config.node_config(2).pipeline.table_names() == ("meter",)
    assert config.node_config(4).pipeline.table_names() == ("acl",)
    assert config.node_config(4).datapath == "poll"
    assert config.node_config(5).pipeline is None


def test_mixed_fleet_runs_programmed_and_plain_nodes():
    result = FleetSystem(_mixed_config()).run(DURATION)
    assert result.completed > 0
    plain, affine, metered, ident, acl, metro = result.node_results
    # The ACL node sheds its hot session; everyone else drops nothing.
    assert acl.dropped > 0
    assert plain.dropped == affine.dropped == ident.dropped == 0
    # The meter's bucket rate is below the node's arrival rate.
    assert metered.dropped > 0
    # Identity node is bit-identical to the unprogrammed node modulo
    # dispatch (different arrival slices), so only sanity-check flow.
    assert ident.completed == ident.sent


def test_mixed_fleet_sharding_is_bit_identical():
    serial = FleetSystem(_mixed_config()).run(DURATION)
    for shards in (1, 2, 3, 6):
        sharded = FleetSystem(
            _mixed_config(shards=shards)).run(DURATION)
        assert sharded.completed == serial.completed
        assert np.array_equal(sharded.latencies_ns, serial.latencies_ns)
        assert sharded.energy.package_j == serial.energy.package_j
        for x, y in zip(sharded.node_results, serial.node_results):
            assert np.array_equal(x.latencies_ns, y.latencies_ns)
            assert x.energy.package_j == y.energy.package_j
            assert x.dropped == y.dropped
            assert x.datapath_pkts == y.datapath_pkts
