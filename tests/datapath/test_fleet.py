"""Mixed-datapath fleets: per-node backends via node_overrides.

``datapath``/``datapath_params`` are plain ServerConfig fields, so a
fleet can mix kernel-NAPI nodes with busy-poll and Metronome nodes the
same way it mixes governors — and sharded execution must stay
bit-identical to the serial fleet regardless of the mix.
"""

from repro.cluster import FleetConfig, FleetSystem
from repro.system import ServerConfig
from repro.units import MS
from tests.goldens import assert_same

DURATION = 20 * MS


def _mixed_config(**overrides):
    node = ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=2)
    base = dict(
        node=node, n_nodes=4, policy="round-robin", seed=13,
        node_overrides={
            1: {"datapath": "poll", "freq_governor": "performance",
                "datapath_params": {"spin_gap_ns": 2_000}},
            2: {"datapath": "metronome", "freq_governor": "ondemand"},
            3: {"datapath": "nmap-hybrid"},
        })
    base.update(overrides)
    return FleetConfig(**base)


def test_node_overrides_select_backends():
    config = _mixed_config()
    assert config.node_config(0).datapath == "napi"
    assert config.node_config(1).datapath == "poll"
    assert config.node_config(1).datapath_params == {"spin_gap_ns": 2_000}
    assert config.node_config(2).datapath == "metronome"
    assert config.node_config(3).datapath == "nmap-hybrid"


def test_mixed_fleet_runs_every_backend():
    result = FleetSystem(_mixed_config()).run(DURATION)
    assert result.completed > 0
    napi, poll, metronome, hybrid = result.node_results
    assert set(napi.datapath_pkts) <= {"interrupt", "polling"}
    assert set(poll.datapath_pkts) == {"busy-poll"}
    assert poll.sleep_wakes == 0
    assert set(metronome.datapath_pkts) <= {"intermittent", "polling"}
    assert metronome.sleep_wakes > 0
    assert hybrid.sleep_wakes > 0
    # The busy-poll node burns the most energy of the four (per-node
    # load is identical under round-robin).
    assert poll.energy_j == max(n.energy_j for n in result.node_results)


def test_mixed_fleet_sharding_is_bit_identical():
    serial = FleetSystem(_mixed_config()).run(DURATION)
    for shards in (2, 4):
        assert_same(FleetSystem(_mixed_config(shards=shards)).run(DURATION),
                    serial)
