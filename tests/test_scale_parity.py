"""Quick-scale validity: 2 cores at per-core load ≈ 8 cores (the testbed).

DESIGN.md's scaling claim: every mechanism is driven by *per-core* load
(RSS spreads flows evenly), so simulating 2 of 8 cores at identical
per-core rates preserves latency behaviour and per-core energy. These
tests check that claim directly.
"""

import pytest

from repro.system import ServerConfig, ServerSystem
from repro.units import MS


@pytest.fixture(scope="module")
def pair():
    results = {}
    for n_cores in (2, 8):
        config = ServerConfig(app="memcached", load_level="high",
                              freq_governor="nmap", n_cores=n_cores,
                              seed=11)
        results[n_cores] = ServerSystem(config).run(200 * MS)
    return results


@pytest.mark.slow
def test_total_throughput_scales_with_cores(pair):
    per_core_2 = pair[2].sent / 2
    per_core_8 = pair[8].sent / 8
    assert per_core_8 == pytest.approx(per_core_2, rel=0.05)


@pytest.mark.slow
def test_p99_is_scale_invariant(pair):
    p99_2 = pair[2].p99_ns
    p99_8 = pair[8].p99_ns
    assert p99_8 == pytest.approx(p99_2, rel=0.5)
    assert pair[8].slo_result().satisfied == pair[2].slo_result().satisfied


@pytest.mark.slow
def test_energy_per_core_is_scale_invariant(pair):
    e2 = pair[2].energy_j / 2
    e8 = pair[8].energy_j / 8
    assert e8 == pytest.approx(e2, rel=0.15)


@pytest.mark.slow
def test_mode_split_is_scale_invariant(pair):
    def ratio(result):
        pkts = result.datapath_pkts
        return pkts["polling"] / max(1, pkts["interrupt"])

    assert ratio(pair[8]) == pytest.approx(ratio(pair[2]), rel=0.4)
