"""Parallel grid execution: worker resolution and result determinism."""

import pytest

from repro.experiments import runner
from repro.experiments.parallel import (resolve_workers, run_many,
                                        using_workers)
from repro.cluster import FleetConfig
from repro.system import ServerConfig
from repro.units import MS
from tests.goldens import assert_same


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers() == 3
    with using_workers(5):
        assert resolve_workers() == 5
        assert resolve_workers(2) == 2  # explicit beats ambient
    assert resolve_workers() == 3  # ambient restored on exit
    with pytest.raises(ValueError):
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        resolve_workers()


def test_resolve_workers_floors_at_one():
    assert resolve_workers(0) == 1
    assert resolve_workers(-4) == 1


def _jobs():
    base = ServerConfig(app="memcached", load_level="low",
                        freq_governor="performance", n_cores=1)
    return [(base.with_overrides(seed=seed, idle_governor=gov), 15 * MS)
            for seed in (41, 42) for gov in ("menu", "disable")]


def test_run_many_serial_preserves_job_order(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = _jobs()
    runner.clear_cache()
    results = run_many(jobs, workers=1)
    assert len(results) == len(jobs)
    for result, (config, _) in zip(results, jobs):
        assert result.config.seed == config.seed
        assert result.config.idle_governor == config.idle_governor
    runner.clear_cache()


def test_serial_and_parallel_grids_bit_identical(tmp_path, monkeypatch):
    """Fanning server and fleet jobs over worker processes changes
    wall-clock only — every cell's result (each fleet node's included)
    matches the serial run bit for bit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    fleet = FleetConfig(node=_jobs()[0][0], n_nodes=2, seed=43)
    jobs = _jobs() + [(fleet, 15 * MS)]
    runner.clear_cache()
    serial = run_many(jobs, workers=1)
    runner.clear_cache()  # memo and disk: the parallel pass starts cold
    parallel = run_many(jobs, workers=2)
    assert len(serial) == len(parallel) == 5
    for a, b in zip(serial, parallel):
        assert type(a) is type(b)
        assert_same(a, b)
    runner.clear_cache()


def test_parallel_results_seed_the_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = _jobs()
    runner.clear_cache()
    first = run_many(jobs, workers=2)
    # The coordinating process memoized every worker result: re-running
    # the same jobs serves identities, no simulation.
    runner.reset_cache_stats()
    again = run_many(jobs, workers=2)
    assert all(a is b for a, b in zip(first, again))
    stats = runner.cache_stats()
    assert stats.memo_hits == len(jobs)
    assert stats.fresh_runs == 0
    runner.clear_cache()
