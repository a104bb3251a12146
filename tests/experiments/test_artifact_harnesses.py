"""Fast end-to-end runs of selected figure harnesses at a tiny scale.

The benchmarks run every harness at quick scale; these tests exercise the
harness *code paths* (tables, series, expectations) at a much smaller
scale so plain `pytest tests/` covers them too. Expectations are not
asserted here — some need the full quick scale to stabilize.
"""

import pytest

from repro.experiments import fig04_latency_cdf, fig10_nmap_latency, \
    fig11_nmap_cdf, robustness
from repro.experiments.base import ExperimentScale
from repro.experiments.runner import clear_cache
from repro.units import MS

TINY = ExperimentScale("tiny", n_cores=1, duration_ns=120 * MS, seed=5)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.mark.slow
def test_fig4_harness_structure():
    result = fig04_latency_cdf.run(TINY)
    assert len(result.rows) == 4  # 2 apps x 2 governors
    assert set(result.series) == {"memcached/ondemand",
                                  "memcached/performance",
                                  "nginx/ondemand", "nginx/performance"}
    for series in result.series.values():
        assert (series["cdf"] <= 1.0).all()


@pytest.mark.slow
def test_fig10_fig11_share_runs():
    first = fig10_nmap_latency.run(TINY)
    from repro.experiments.runner import cache_stats, reset_cache_stats
    reset_cache_stats()
    second = fig11_nmap_cdf.run(TINY)
    assert cache_stats().fresh_runs == 0  # fully cached
    assert len(first.rows) == 2
    assert len(second.rows) == 2


@pytest.mark.slow
def test_robustness_harness_structure():
    result = robustness.run(TINY)
    assert len(result.rows) == len(robustness.SEEDS) * len(
        robustness.GOVERNORS)
    assert "normalized_p99" in result.series