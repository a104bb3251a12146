"""ServerSystem facade."""

import pytest

from repro.system import (DEFAULT_NMAP_THRESHOLDS, RunResult, ServerConfig,
                          ServerSystem, run_server)
from repro.units import MS
from repro.workload.shapes import ConstantLoad


def test_default_config_builds():
    system = ServerSystem(ServerConfig())
    assert system.processor.n_cores == 2
    assert len(system.stack.rx.napis) == 2
    assert len(system.workers) == 2


def test_config_with_overrides():
    config = ServerConfig(app="memcached", n_cores=2)
    other = config.with_overrides(app="nginx", n_cores=4)
    assert other.app == "nginx" and other.n_cores == 4
    assert config.app == "memcached"  # original untouched


def test_unknown_governor_rejected():
    with pytest.raises(ValueError):
        ServerSystem(ServerConfig(freq_governor="warp-speed"))


def test_unknown_processor_rejected():
    with pytest.raises(ValueError):
        ServerSystem(ServerConfig(processor="M1"))


def test_run_returns_complete_result():
    config = ServerConfig(app="memcached", load_level="low",
                          freq_governor="performance", n_cores=1, seed=8)
    result = run_server(config, 50 * MS)
    assert isinstance(result, RunResult)
    assert result.sent > 0
    assert result.completed == result.sent
    assert result.energy_j > 0
    assert result.slo_ns == 1 * MS
    assert result.latencies_ns.size == result.completed


def test_custom_load_shape_is_per_core_scaled():
    config = ServerConfig(load_shape=ConstantLoad(10_000), n_cores=2,
                          freq_governor="performance", seed=8)
    system = ServerSystem(config)
    assert system.load_shape.mean_rps() == pytest.approx(20_000)


def test_seed_reproducibility():
    config = ServerConfig(app="memcached", load_level="low",
                          freq_governor="ondemand", n_cores=1, seed=99)
    a = ServerSystem(config).run(50 * MS)
    b = ServerSystem(config).run(50 * MS)
    assert a.sent == b.sent
    assert (a.latencies_ns == b.latencies_ns).all()
    assert a.energy_j == pytest.approx(b.energy_j)


def test_different_seeds_differ():
    config = ServerConfig(app="memcached", load_level="low", n_cores=1)
    a = ServerSystem(config.with_overrides(seed=1)).run(50 * MS)
    b = ServerSystem(config.with_overrides(seed=2)).run(50 * MS)
    assert a.sent != b.sent or (a.latencies_ns != b.latencies_ns).any()


def test_energy_measured_over_run_window_only():
    config = ServerConfig(app="memcached", load_level="low",
                          freq_governor="performance", n_cores=1, seed=8)
    result = ServerSystem(config).run(50 * MS)
    # 50 ms at a sane power level: single-digit joules.
    assert 0.01 < result.energy_j < 10


def test_trace_disabled_by_default():
    config = ServerConfig(app="memcached", load_level="low", n_cores=1,
                          seed=8)
    result = ServerSystem(config).run(20 * MS)
    assert list(result.trace.channels()) == []


def test_trace_enabled_records_pstates_and_modes():
    config = ServerConfig(app="memcached", load_level="high", n_cores=1,
                          freq_governor="ondemand", seed=8, trace=True)
    result = ServerSystem(config).run(120 * MS)
    assert "core0.pstate" in result.trace
    assert "core0.pkts_interrupt" in result.trace


def test_default_thresholds_exist_for_both_apps():
    assert set(DEFAULT_NMAP_THRESHOLDS) == {"memcached", "nginx"}
    for th in DEFAULT_NMAP_THRESHOLDS.values():
        assert th.ni_th > 0 and th.cu_th > 0


def test_run_rejects_bad_duration():
    system = ServerSystem(ServerConfig(n_cores=1))
    with pytest.raises(ValueError):
        system.run(0)


def test_chip_wide_domain_builds_and_runs():
    config = ServerConfig(app="memcached", load_level="low", n_cores=2,
                          dvfs_domain="chip-wide",
                          freq_governor="ondemand", seed=8)
    result = ServerSystem(config).run(30 * MS)
    assert result.completed > 0
