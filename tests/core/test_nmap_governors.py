"""NMAP and NMAP-simpl governors on a live (small) system."""

import pytest

from repro.core.decision import MODE_CPU_UTIL, MODE_NET_INTENSIVE
from repro.core.nmap import NmapThresholds
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def test_thresholds_validation():
    with pytest.raises(ValueError):
        NmapThresholds(ni_th=0, cu_th=1)
    with pytest.raises(ValueError):
        NmapThresholds(ni_th=1, cu_th=0)


@pytest.fixture(scope="module")
def nmap_high_run():
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap", n_cores=1, seed=3)
    system = ServerSystem(config)
    result = system.run(200 * MS)
    return system, result


def test_nmap_enters_and_leaves_ni_mode(nmap_high_run):
    system, _ = nmap_high_run
    gov = system.freq_governors[0]
    assert gov.engine.ni_entries > 0
    assert gov.engine.cu_entries > 0


def test_nmap_meets_slo_at_high_load(nmap_high_run):
    _, result = nmap_high_run
    assert result.slo_result().satisfied


def test_nmap_monitor_saw_both_modes(nmap_high_run):
    system, result = nmap_high_run
    assert result.datapath_pkts["interrupt"] > 0
    assert result.datapath_pkts["polling"] > 0


def test_nmap_stop_detaches(nmap_high_run):
    system, _ = nmap_high_run
    gov = system.freq_governors[0]
    napi = system.stack.rx.napis[0]
    # run() already stopped the governors; listeners must be gone.
    assert gov.monitor._on_poll not in napi.poll_listeners


def test_nmap_simpl_reacts_to_ksoftirqd():
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap-simpl", n_cores=1, seed=3)
    system = ServerSystem(config)
    result = system.run(200 * MS)
    gov = system.freq_governors[0]
    assert result.telemetry.total("ksoftirqd_wakeups_total") > 0
    assert gov.ni_entries > 0
    assert gov.cu_entries > 0
    assert gov.mode in (MODE_CPU_UTIL, MODE_NET_INTENSIVE)


def test_nmap_simpl_boost_matches_wake_count():
    config = ServerConfig(app="memcached", load_level="medium",
                          freq_governor="nmap-simpl", n_cores=1, seed=3)
    system = ServerSystem(config)
    result = system.run(200 * MS)
    gov = system.freq_governors[0]
    # Every NI entry was triggered by a ksoftirqd wake.
    assert gov.ni_entries <= result.telemetry.total("ksoftirqd_wakeups_total")


def test_nmap_uses_explicit_thresholds():
    thresholds = NmapThresholds(ni_th=999_999, cu_th=0.5)
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap", n_cores=1, seed=3,
                          nmap_thresholds=thresholds)
    system = ServerSystem(config)
    system.run(100 * MS)
    gov = system.freq_governors[0]
    # An absurdly high NI_TH never triggers Network Intensive Mode.
    assert gov.engine.ni_entries == 0
