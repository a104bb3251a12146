"""Governor resilience under injected faults: p99, loss, and energy.

Sweeps the power-management governors over the ``repro.faults``
scenarios — packet-loss bursts, interrupt storms, thermal throttling —
on a single memcached node whose clients time out and retry, then kills
a whole node in a three-node fleet with and without LB health checking.
The questions: does NMAP's latency win survive degraded operation (it
must not have been an artifact of clean-network conditions), and does
retry + failover machinery actually recover the lost requests?
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster.config import FleetConfig
from repro.cluster.health import HealthPolicy
from repro.experiments import parallel
from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.faults.scenarios import make_plan, node_kill_plan
from repro.system import ServerConfig
from repro.units import MS, US
from repro.workload.retry import RetryPolicy

GOVERNORS = ("ondemand", "parties", "ncap", "nmap")
#: Single-node scenarios, in escalating-nastiness order. ``healthy`` is
#: the control row every expectation compares against.
SCENARIOS = ("healthy", "loss-burst", "irq-storm", "throttle")
#: Client-side degradation handling: time out at 2x the memcached SLO,
#: retry with exponential backoff up to 3 times.
RETRY = RetryPolicy(timeout_ns=2 * MS, max_retries=3,
                    backoff_base_ns=200 * US, backoff_factor=2.0,
                    backoff_cap_ns=2 * MS)
N_FLEET_NODES = 3
HEALTH = HealthPolicy()

Key = Tuple[str, str]  # (scenario, governor)


def node_config(scale: ExperimentScale, governor: str,
                scenario: str) -> ServerConfig:
    return ServerConfig(app="memcached", load_level="medium",
                        freq_governor=governor, n_cores=scale.n_cores,
                        seed=scale.seed,
                        fault_plan=make_plan(scenario, scale.duration_ns),
                        retry=RETRY)


def fleet_config(scale: ExperimentScale, health: bool) -> FleetConfig:
    node = ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=scale.n_cores,
                        retry=RETRY)
    # Session-affine round-robin (an L4 balancer) blindly keeps a third
    # of the traffic pinned to the dead node for the whole blackout —
    # exactly the balancer that needs health checking. (Least-outstanding
    # self-regulates around a blackout even blind: give-ups tear down
    # connections, so the dead node's apparent load stays high enough to
    # repel traffic.)
    return FleetConfig(node=node, n_nodes=N_FLEET_NODES,
                       policy="round-robin",
                       health=HEALTH if health else None,
                       node_fault_plans={
                           1: node_kill_plan(scale.duration_ns)},
                       seed=scale.seed + 1)


def _loss_rate(result) -> float:
    """Requests never answered (dropped, abandoned, or stuck) / sent."""
    if result.sent == 0:
        return 0.0
    return (result.sent - result.completed) / result.sent


def _slo_miss_rate(result) -> float:
    """SLO violations *including* lost requests, over everything sent.

    A request the client never got an answer for is the worst kind of
    SLO violation, so it counts; plain p99/SLO would let a governor
    look good by shedding its slowest requests.
    """
    if result.sent == 0:
        return 0.0
    late = int((result.latencies_ns > result.slo_ns).sum())
    lost = result.sent - result.completed
    return (late + lost) / result.sent


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    headers = ["scenario", "governor", "p99/SLO", "SLO miss+loss %",
               "loss %", "retries", "fault windows", "energy (J)"]
    keys = [(scenario, governor) for scenario in SCENARIOS
            for governor in GOVERNORS]
    jobs = [(node_config(scale, governor, scenario), scale.duration_ns)
            for scenario, governor in keys]
    results = dict(zip(keys, parallel.run_many(jobs)))

    rows = []
    norm: Dict[Key, float] = {}
    miss: Dict[Key, float] = {}
    loss: Dict[Key, float] = {}
    energy: Dict[Key, float] = {}
    retried: Dict[Key, int] = {}
    windows: Dict[Key, int] = {}
    for key, result in results.items():
        scenario, governor = key
        norm[key] = result.slo_result().normalized_p99
        miss[key] = _slo_miss_rate(result)
        loss[key] = _loss_rate(result)
        energy[key] = result.energy_j
        retried[key] = result.telemetry.sum_of("requests_retried_total")
        windows[key] = result.telemetry.sum_of("fault_windows_total")
        rows.append([
            scenario, governor, round(norm[key], 2),
            round(100 * miss[key], 2), round(100 * loss[key], 3),
            retried[key], windows[key], round(energy[key], 3),
        ])

    # Fleet rows: node 1 crashes mid-run; does LB health checking
    # (timeout-driven mark-down + failover + re-dispatch) recover it?
    fleet_jobs = [(fleet_config(scale, health), scale.duration_ns)
                  for health in (False, True)]
    fleet_results = parallel.run_many(fleet_jobs)
    fleet_loss: Dict[bool, float] = {}
    for (config, _), result in zip(fleet_jobs, fleet_results):
        health = config.health is not None
        fleet_loss[health] = _loss_rate(result)
        label = "health-lb" if health else "blind-lb"
        rows.append([
            "node-kill", f"nmap fleet/{label}",
            round(result.slo_result().normalized_p99, 2),
            round(100 * _slo_miss_rate(result), 2),
            round(100 * fleet_loss[health], 3),
            result.telemetry.sum_of("requests_retried_total"),
            result.telemetry.sum_of("fault_windows_total"),
            round(result.energy_j, 3),
        ])

    faulty = [s for s in SCENARIOS if s != "healthy"]
    expectations = {
        "every fault scenario injects fault windows under every "
        "governor": all(windows[(s, g)] > 0
                        for s in faulty for g in GOVERNORS),
        "healthy rows inject no fault windows": all(
            windows[("healthy", g)] == 0 for g in GOVERNORS),
        "loss bursts force client retries under every governor": all(
            retried[("loss-burst", g)] > 0 for g in GOVERNORS),
        "retries recover nearly all loss-burst drops (every governor)":
            all(loss[("loss-burst", g)] < 0.01 for g in GOVERNORS),
        "thermal throttling at least doubles every governor's p99": all(
            norm[("throttle", g)] > 2 * norm[("healthy", g)]
            for g in GOVERNORS),
        "interrupt storms burn extra energy under every governor": all(
            energy[("irq-storm", g)] > energy[("healthy", g)]
            for g in GOVERNORS),
        "nmap's ordering survives faults: at worst ondemand-level "
        "p99 in every scenario": all(
            norm[(s, "nmap")] <= 1.10 * norm[(s, "ondemand")]
            for s in SCENARIOS),
        "health-checking LB loses a small fraction of what the blind "
        "LB loses to the node kill":
            fleet_loss[False] > 0.02
            and fleet_loss[True] < fleet_loss[False] / 5,
    }
    return ExperimentResult(
        experiment_id="fault_resilience",
        title="Governor resilience under injected faults "
              "(memcached, medium load, client retries)",
        headers=headers, rows=rows,
        series={
            "normalized_p99": {f"{s}/{g}": v for (s, g), v in norm.items()},
            "slo_miss_rate": {f"{s}/{g}": v for (s, g), v in miss.items()},
            "loss_rate": {f"{s}/{g}": v for (s, g), v in loss.items()},
            "fleet_loss_rate": {"blind-lb": fleet_loss[False],
                                "health-lb": fleet_loss[True]},
        },
        expectations=expectations,
        notes="Client timeout 2x SLO, <=3 retries with exponential "
              "backoff; fleet rows kill node 1 for 30% of the run "
              "behind a session-affine round-robin balancer. "
              "'SLO miss+loss %' counts unanswered requests as "
              "violations.")
