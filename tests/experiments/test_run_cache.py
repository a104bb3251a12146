"""The persistent (on-disk) run cache behind run_cached."""

import pytest

from repro.cluster import FleetConfig
from repro.cluster.cache import run_fleet_cached
from repro.experiments import runner
from repro.experiments.confighash import MODEL_VERSION
from repro.system import ServerConfig
from repro.units import MS
from tests.goldens import assert_same

CONFIG = ServerConfig(app="memcached", load_level="low",
                      freq_governor="performance", n_cores=1, seed=77)


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RUN_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    runner.set_cache_dir(tmp_path)
    runner.clear_cache()
    runner.reset_cache_stats()
    yield tmp_path
    runner.clear_cache()
    runner.set_cache_dir(None)
    runner.reset_cache_stats()


def test_fresh_run_is_served_from_disk_in_a_fresh_process(disk_cache):
    result = runner.run_cached(CONFIG, 15 * MS)
    stats = runner.cache_stats()
    assert stats.fresh_runs == 1
    assert stats.disk_writes == 1
    assert len(list(runner.cache_dir().glob("*.pkl"))) == 1
    # Dropping the memo models a fresh process: the second invocation is
    # a disk hit and reproduces the run exactly.
    runner._cache.clear()
    runner.reset_cache_stats()
    again = runner.run_cached(CONFIG, 15 * MS)
    stats = runner.cache_stats()
    assert stats.disk_hits == 1
    assert stats.fresh_runs == 0
    assert again is not result
    assert_same(again, result)


def test_clear_cache_drops_fleet_results(disk_cache):
    """Fleets share the one memo: clear_cache() must drop them too."""
    fleet = FleetConfig(node=CONFIG, n_nodes=2, seed=5)
    first = run_fleet_cached(fleet, 15 * MS)
    runner.clear_cache()
    runner.reset_cache_stats()
    again = run_fleet_cached(fleet, 15 * MS)
    stats = runner.cache_stats()
    assert stats.fresh_runs == 1
    assert stats.memo_hits == stats.disk_hits == 0
    assert again is not first
    assert stats.fresh_events_fired == sum(
        node.perf.events_fired for node in again.node_results)


def test_peek_cached_never_simulates(disk_cache):
    assert runner.peek_cached(CONFIG, 15 * MS) is None
    runner.run_cached(CONFIG, 15 * MS)
    runner._cache.clear()
    assert runner.peek_cached(CONFIG, 15 * MS) is not None
    assert runner.cache_stats().fresh_runs == 1  # only the explicit run


def test_cache_dir_is_model_version_namespaced(disk_cache):
    assert runner.cache_dir().name == MODEL_VERSION
    assert runner.cache_dir().parent == disk_cache


def test_clear_cache_removes_only_this_models_namespace(disk_cache):
    runner.run_cached(CONFIG, 15 * MS)
    assert runner.cache_dir().is_dir()
    other = disk_cache / (MODEL_VERSION + "-other")
    other.mkdir()
    (other / "keep.pkl").write_bytes(b"x")
    runner.clear_cache()
    assert not runner.cache_dir().exists()
    assert (other / "keep.pkl").exists()
    assert runner.peek_cached(CONFIG, 15 * MS) is None


def test_env_knob_disables_persistence(disk_cache, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE", "0")
    assert not runner.disk_cache_enabled()
    runner.run_cached(CONFIG, 15 * MS)
    assert not runner.cache_dir().exists()
    assert runner.cache_stats().disk_writes == 0
    # The in-process memo still works.
    runner.run_cached(CONFIG, 15 * MS)
    assert runner.cache_stats().memo_hits == 1


def test_corrupt_disk_entry_is_a_miss(disk_cache):
    runner.run_cached(CONFIG, 15 * MS)
    [path] = runner.cache_dir().glob("*.pkl")
    path.write_bytes(b"not a pickle")
    runner._cache.clear()
    runner.reset_cache_stats()
    runner.run_cached(CONFIG, 15 * MS)
    stats = runner.cache_stats()
    assert stats.disk_hits == 0
    assert stats.fresh_runs == 1
