"""System builder paths for the manager-style governors."""

from repro.baselines.ncap import NcapManager
from repro.baselines.parties import PartiesManager
from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def test_ncap_menu_build_keeps_sleep_during_boost():
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="ncap-menu", n_cores=1, seed=9)
    system = ServerSystem(config)
    assert isinstance(system.manager, NcapManager)
    assert not system.manager.disable_sleep_in_boost
    result = system.run(100 * MS)
    assert result.completed == result.sent


def test_ncap_build_disables_sleep_during_boost():
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="ncap", n_cores=1, seed=9)
    system = ServerSystem(config)
    assert system.manager.disable_sleep_in_boost


def test_ncap_threshold_override():
    config = ServerConfig(app="memcached", freq_governor="ncap",
                          ncap_threshold_rps=123_456.0, n_cores=1)
    system = ServerSystem(config)
    assert system.manager.threshold_rps == 123_456.0


def test_ncap_default_threshold_scales_with_cores():
    one = ServerSystem(ServerConfig(freq_governor="ncap", n_cores=1))
    two = ServerSystem(ServerConfig(freq_governor="ncap", n_cores=2))
    assert two.manager.threshold_rps == 2 * one.manager.threshold_rps


def test_parties_build_uses_app_slo():
    config = ServerConfig(app="nginx", freq_governor="parties", n_cores=1)
    system = ServerSystem(config)
    assert isinstance(system.manager, PartiesManager)
    assert system.manager.slo_ns == 10 * MS
    assert system.manager.client is system.client


def test_parties_run_adjusts_index():
    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="parties", n_cores=1, seed=9)
    system = ServerSystem(config)
    result = system.run(600 * MS + 10 * MS)  # past one 500ms period
    assert system.manager.adjustments >= 1
    assert result.completed > 0


def test_nmap_with_explicit_fallback_params():
    config = ServerConfig(app="memcached", load_level="low",
                          freq_governor="nmap", n_cores=1, seed=9,
                          freq_governor_params={"timer_period_ns": 5 * MS})
    system = ServerSystem(config)
    assert system.freq_governors[0].timer_period_ns == 5 * MS
    system.run(50 * MS)
