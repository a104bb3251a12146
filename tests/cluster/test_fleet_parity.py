"""The fleet determinism contract (tier-1 critical).

Two guarantees, both bit-level:

* A 1-node fleet under the feedback-free round-robin policy reproduces
  the equivalent standalone :class:`~repro.system.ServerSystem` run
  exactly — same latencies, same completion times, same float energy,
  same packet-mode counters. The lockstep loop's incremental
  ``run_until`` calls and the pre-fed arrival schedule must not perturb
  event ordering.
* Fanning fleet jobs over worker processes changes wall-clock only.
"""

import numpy as np

from repro.cluster import FleetConfig, run_fleet
from repro.experiments import runner
from repro.experiments.parallel import run_many
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests.goldens import assert_same

DURATION = 40 * MS


def _fleet_config(**kwargs):
    node = ServerConfig(app="memcached", load_level="low",
                        freq_governor="ondemand", n_cores=2)
    kwargs.setdefault("policy", "round-robin")
    return FleetConfig(node=node, n_nodes=1, seed=3, **kwargs)


def test_one_node_fleet_matches_standalone_bit_for_bit():
    fleet_cfg = _fleet_config()
    fleet = run_fleet(fleet_cfg, DURATION)

    standalone_cfg = fleet_cfg.node.with_overrides(
        seed=fleet_cfg.node_seed(0),
        arrival_seed=fleet_cfg.arrival_seed())
    standalone = ServerSystem(standalone_cfg).run(DURATION)

    assert fleet.sent == standalone.sent
    assert fleet.completed == standalone.completed
    assert fleet.dropped == standalone.dropped
    assert np.array_equal(fleet.latencies_ns, standalone.latencies_ns)
    node = fleet.node_results[0]
    assert np.array_equal(node.completion_times_ns,
                          standalone.completion_times_ns)
    # Exact float equality: the incremental lockstep advance must hit
    # the same energy-accrual points in the same order.
    assert fleet.energy.package_j == standalone.energy.package_j
    assert node.datapath_pkts == standalone.datapath_pkts
    assert node.telemetry.sum_of("ksoftirqd_wakeups_total") == \
        standalone.telemetry.sum_of("ksoftirqd_wakeups_total")


def test_one_node_parity_holds_for_feedback_policies():
    """Feedback dispatch feeds arrivals window by window; with one node
    every request still lands there, so totals and latencies must match
    the pre-fed path (event *interleaving* differs, so energy may drift
    in float accumulation order — totals are the contract here)."""
    fleet = run_fleet(_fleet_config(policy="least-outstanding"), DURATION)
    baseline = run_fleet(_fleet_config(), DURATION)
    assert fleet.sent == baseline.sent
    assert fleet.completed == baseline.completed
    assert np.array_equal(np.sort(fleet.latencies_ns),
                          np.sort(baseline.latencies_ns))


def _jobs():
    base = FleetConfig(
        node=ServerConfig(app="memcached", load_level="low",
                          freq_governor="performance", n_cores=1),
        n_nodes=2, policy="least-outstanding")
    return [(base.with_overrides(seed=seed, policy=policy), 15 * MS)
            for seed in (21, 22)
            for policy in ("round-robin", "least-outstanding")]


def test_serial_and_parallel_fleets_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = _jobs()
    runner.clear_cache()
    serial = run_many(jobs, workers=1)
    runner.clear_cache()
    parallel = run_many(jobs, workers=2)
    runner.clear_cache()
    for a, b, (config, _) in zip(serial, parallel, jobs):
        assert a.config == config and b.config == config
        assert_same(a, b)
