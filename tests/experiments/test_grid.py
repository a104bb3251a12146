"""Grid helpers shared by Figs. 12-15."""

import pytest

from repro.experiments.base import ExperimentScale
from repro.experiments.grid import baseline_energy, cell_config, run_grid
from repro.experiments.runner import clear_cache, run_cached
from repro.system import RunResult
from repro.units import MS

TINY = ExperimentScale("tiny", n_cores=1, duration_ns=30 * MS, seed=5)


def test_run_cell_returns_run_result():
    clear_cache()
    config = cell_config("memcached", "low", "performance", "menu", TINY)
    result = run_cached(config, TINY.duration_ns)
    assert isinstance(result, RunResult)
    assert result.completed > 0
    clear_cache()


def test_run_grid_covers_all_combinations():
    clear_cache()
    results = run_grid(("performance",), ("menu", "disable"), TINY,
                       apps=("memcached",), levels=("low",))
    assert set(results) == {("memcached", "low", "performance", "menu"),
                            ("memcached", "low", "performance", "disable")}
    clear_cache()


def test_baseline_energy_requires_perf_menu_cell():
    clear_cache()
    results = run_grid(("performance",), ("menu",), TINY,
                       apps=("memcached",), levels=("low",))
    assert baseline_energy(results, "memcached", "low") > 0
    with pytest.raises(KeyError):
        baseline_energy(results, "nginx", "low")
    clear_cache()


def test_grid_reuses_cache():
    clear_cache()
    config = cell_config("memcached", "low", "performance", "menu", TINY)
    a = run_cached(config, TINY.duration_ns)
    assert run_cached(config, TINY.duration_ns) is a
    clear_cache()


def test_cell_config_overrides_reach_the_server_config():
    config = cell_config("nginx", "high", "nmap", "c6only", TINY,
                         datapath="poll", n_flows=4)
    assert (config.app, config.load_level, config.freq_governor,
            config.idle_governor) == ("nginx", "high", "nmap", "c6only")
    assert (config.n_cores, config.seed) == (TINY.n_cores, TINY.seed)
    assert (config.datapath, config.n_flows) == ("poll", 4)
