"""Faulted runs are pure functions of (config, seed).

Same plan + same seed must reproduce identical fault schedules, latency
arrays, retry counts, and energy — every field of the golden capture,
whose telemetry digest carries the fault and retry counters —
in-process, across repeated runs, and across a worker pool
(``parallel.run_many`` with workers=2), which is how the
fault_resilience experiment fans out.
"""

from repro.experiments import runner
from repro.experiments.parallel import run_many
from repro.faults.scenarios import make_plan
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.retry import RetryPolicy
from tests.goldens import assert_same

DURATION = 40 * MS


def _config(scenario, seed=9):
    return ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=2, seed=seed,
                        fault_plan=make_plan(scenario, DURATION),
                        retry=RetryPolicy())


def test_repeated_faulted_runs_are_identical():
    for scenario in ("loss-burst", "irq-storm", "node-kill"):
        a = ServerSystem(_config(scenario)).run(DURATION)
        b = ServerSystem(_config(scenario)).run(DURATION)
        assert_same(a, b)


def test_fault_noise_is_independent_of_the_arrival_stream():
    # The faulted run and the healthy run share identical *inputs*:
    # every request the healthy run sends, the faulted run sends too,
    # at the same creation instant.
    healthy = ServerSystem(ServerConfig(
        app="memcached", load_level="medium", freq_governor="nmap",
        n_cores=2, seed=9)).run(DURATION)
    faulted = ServerSystem(_config("loss-burst")).run(DURATION)
    assert faulted.sent == healthy.sent


def test_serial_and_worker_pool_runs_are_identical():
    jobs = [(_config("loss-burst"), DURATION),
            (_config("throttle"), DURATION)]
    runner.clear_cache()
    serial = run_many(jobs, workers=1)
    runner.clear_cache()  # the pool must simulate, not hit the memo
    pooled = run_many(jobs, workers=2)
    runner.clear_cache()
    for a, b in zip(serial, pooled):
        assert_same(a, b)


def test_fleet_node_kill_with_health_is_deterministic():
    from repro.cluster import FleetConfig, FleetSystem
    from repro.cluster.health import HealthPolicy

    def run_once():
        node = ServerConfig(app="memcached", load_level="medium",
                            freq_governor="nmap", n_cores=2,
                            retry=RetryPolicy())
        config = FleetConfig(node=node, n_nodes=3, policy="round-robin",
                             health=HealthPolicy(),
                             node_fault_plans={
                                 1: make_plan("node-kill", DURATION)},
                             seed=3)
        return FleetSystem(config).run(DURATION)

    assert_same(run_once(), run_once())
