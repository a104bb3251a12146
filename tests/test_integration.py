"""Cross-module integration: the paper's headline behaviours, in miniature.

These run the real system end-to-end at reduced scale (1-2 cores, short
windows) and assert the *orderings* the paper reports, not exact numbers.
"""

import pytest

from repro.system import ServerConfig, ServerSystem
from repro.units import MS


def run(governor, app="memcached", level="high", n_cores=1, seed=2,
        duration=200 * MS, **kwargs):
    config = ServerConfig(app=app, load_level=level, freq_governor=governor,
                          n_cores=n_cores, seed=seed, **kwargs)
    return ServerSystem(config).run(duration)


@pytest.fixture(scope="module")
def results():
    governors = ("performance", "ondemand", "powersave", "nmap",
                 "nmap-simpl", "ncap")
    return {gov: run(gov) for gov in governors}


def test_no_requests_lost(results):
    for gov, result in results.items():
        assert result.completed == result.sent, gov
        assert result.dropped == 0, gov


def test_performance_meets_slo(results):
    assert results["performance"].slo_result().satisfied


def test_ondemand_violates_at_high_load(results):
    assert not results["ondemand"].slo_result().satisfied


def test_nmap_meets_slo_at_high_load(results):
    assert results["nmap"].slo_result().satisfied


def test_ncap_meets_slo_at_high_load(results):
    assert results["ncap"].slo_result().satisfied


def test_latency_ordering(results):
    p99 = {g: r.p99_ns for g, r in results.items()}
    assert p99["performance"] <= p99["nmap"] <= p99["ondemand"]
    assert p99["ondemand"] < p99["powersave"]


def test_energy_ordering(results):
    energy = {g: r.energy_j for g, r in results.items()}
    assert energy["powersave"] < energy["performance"]
    assert energy["ondemand"] < energy["performance"]
    assert energy["nmap"] < energy["performance"]


def test_nmap_saves_energy_vs_ncap(results):
    assert results["nmap"].energy_j < results["ncap"].energy_j


def test_polling_dominates_under_powersave(results):
    """An overloaded slow core processes most packets by polling."""
    slow = results["powersave"]
    fast = results["performance"]
    slow_ratio = (slow.datapath_pkts["polling"]
                  / max(1, slow.datapath_pkts["interrupt"]))
    fast_ratio = (fast.datapath_pkts["polling"]
                  / max(1, fast.datapath_pkts["interrupt"]))
    assert slow_ratio > fast_ratio


def test_ksoftirqd_wakes_under_overload(results):
    assert results["powersave"].telemetry.total(
        "ksoftirqd_wakeups_total") > 0


@pytest.mark.slow
def test_low_load_all_governors_meet_slo():
    for gov in ("performance", "ondemand", "nmap", "nmap-simpl"):
        result = run(gov, level="low")
        assert result.slo_result().satisfied, gov


@pytest.mark.slow
def test_nginx_end_to_end():
    perf = run("performance", app="nginx")
    ondemand = run("ondemand", app="nginx")
    assert perf.slo_result().satisfied
    assert ondemand.p99_ns > perf.p99_ns
