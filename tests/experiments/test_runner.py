"""Experiment runner cache and registry."""

import pytest

from repro.experiments.base import FULL, QUICK, ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import clear_cache, peek_cached, run_cached
from repro.system import ServerConfig
from repro.units import MS


def test_all_paper_artifacts_registered():
    paper_artifacts = ["fig2", "fig3", "fig4", "tab1", "tab2", "fig7",
                       "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                       "fig14", "fig15", "fig16"]
    for artifact in paper_artifacts:
        assert artifact in EXPERIMENTS
    # Plus the SLO-calibration procedure behind Sec. 3.1.
    assert "slo" in EXPERIMENTS


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment("fig99")


def test_scales():
    assert QUICK.n_cores == 2
    assert FULL.n_cores == 8
    assert FULL.duration_ns > QUICK.duration_ns


def test_run_cached_memoizes():
    clear_cache()
    config = ServerConfig(app="memcached", load_level="low",
                          freq_governor="performance", n_cores=1, seed=77)
    a = run_cached(config, 20 * MS)
    b = run_cached(config, 20 * MS)
    assert a is b
    clear_cache()
    assert peek_cached(config, 20 * MS) is None


def test_different_configs_cached_separately():
    clear_cache()
    base = ServerConfig(app="memcached", load_level="low", n_cores=1,
                        freq_governor="performance", seed=77)
    a = run_cached(base, 20 * MS)
    b = run_cached(base.with_overrides(seed=78), 20 * MS)
    assert a is not b
    assert peek_cached(base, 20 * MS) is a
    assert peek_cached(base.with_overrides(seed=78), 20 * MS) is b
    clear_cache()


def test_experiment_result_rendering():
    result = ExperimentResult(
        experiment_id="figX", title="demo", headers=["a"], rows=[[1]],
        expectations={"it works": True, "it fails": False},
        notes="a note")
    text = result.render()
    assert "figX: demo" in text
    assert "[x] it works" in text
    assert "[ ] it fails" in text
    assert "a note" in text
    assert not result.all_expectations_met


@pytest.mark.slow
def test_tab1_quick_run_meets_expectations():
    result = run_experiment("tab1")
    assert result.all_expectations_met
    assert len(result.rows) == 24  # 4 processors x 6 transitions


@pytest.mark.slow
def test_tab2_quick_run_meets_expectations():
    result = run_experiment("tab2")
    assert result.all_expectations_met
    assert len(result.rows) == 8  # 4 processors x 2 transitions
