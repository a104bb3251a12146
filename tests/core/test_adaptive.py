"""Adaptive (on-line re-profiling) NMAP."""

import pytest

from repro.core.nmap import NmapThresholds
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def build(reprofile_period_ns=50 * MS, thresholds=None, seed=3):
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap-adaptive", n_cores=1,
                          seed=seed,
                          nmap_thresholds=thresholds,
                          freq_governor_params={
                              "reprofile_period_ns": reprofile_period_ns,
                              "min_interrupts": 50})
    return ServerSystem(config)


def test_reprofiles_during_run():
    system = build()
    result = system.run(200 * MS)
    gov = system.freq_governors[0]
    assert gov.reprofiles >= 1
    assert result.slo_result().satisfied


def test_refreshed_thresholds_replace_initials():
    # Start from absurd thresholds; adaptation must repair them.
    bad = NmapThresholds(ni_th=1e9, cu_th=1e9)
    system = build(thresholds=bad)
    system.run(200 * MS)
    gov = system.freq_governors[0]
    assert gov.thresholds.ni_th < 1e9
    assert gov.monitor.ni_threshold == gov.thresholds.ni_th
    assert gov.engine.cu_threshold == gov.thresholds.cu_th


def test_stop_detaches_profiler():
    system = build()
    system.run(100 * MS)
    gov = system.freq_governors[0]
    assert gov._profiler is None
    assert gov._reprofile_timer is None


def test_validation():
    with pytest.raises(ValueError):
        build(reprofile_period_ns=0)
