"""Fleet tail latency vs node count: tail-at-scale under affine dispatch.

A fixed, zipf-weighted pool of client sessions is spread over the fleet
by a connection-affine round-robin balancer (an L4 device): each session
sticks to one node. As the fleet grows, each node holds fewer sessions,
so the law of small numbers skews per-node load harder — the hottest
node saturates and the *fleet* p99 blows through the SLO even though
average utilization is unchanged. A power-aware L7 balancer dispatching
per request on node telemetry erases the skew and holds the SLO at
every fleet size.
"""

from __future__ import annotations

from repro.cluster.config import FleetConfig
from repro.experiments import parallel
from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.system import ServerConfig

NODE_COUNTS = (1, 2, 4)
POLICIES = ("round-robin", "power-aware")
#: Fixed session pool: ~1 session per quick-scale fleet core at the
#: largest size, so affinity skew is strong there and mild at 1 node.
N_SESSIONS = 24
SESSION_SKEW = 1.1


def fleet_config(scale: ExperimentScale, policy: str,
                 n_nodes: int) -> FleetConfig:
    node = ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=scale.n_cores)
    return FleetConfig(node=node, n_nodes=n_nodes, policy=policy,
                       n_sessions=N_SESSIONS, session_skew=SESSION_SKEW,
                       seed=scale.seed + 1)


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    headers = ["policy", "nodes", "fleet p99/SLO", "worst node p99/SLO",
               "imbalance", "energy (J)"]
    jobs = [(fleet_config(scale, policy, n), scale.duration_ns)
            for policy in POLICIES for n in NODE_COUNTS]
    results = parallel.run_many(jobs)

    rows = []
    norm = {}
    for (config, _), result in zip(jobs, results):
        fleet_norm = result.slo_result().normalized_p99
        worst_norm = (max(result.node_p99s_ns()) / result.slo_ns
                      if result.slo_ns else 0.0)
        norm[(config.policy, config.n_nodes)] = fleet_norm
        rows.append([config.policy, config.n_nodes,
                     round(fleet_norm, 2), round(worst_norm, 2),
                     round(result.imbalance(), 2),
                     round(result.energy_j, 3)])

    smallest, largest = NODE_COUNTS[0], NODE_COUNTS[-1]
    expectations = {
        "round-robin fleet p99/SLO rises with node count":
            norm[("round-robin", largest)]
            > 2 * norm[("round-robin", smallest)],
        "session-affine round-robin violates the SLO at the largest "
        "fleet": norm[("round-robin", largest)] > 1.0,
        "power-aware dispatch holds the SLO at every fleet size": all(
            norm[("power-aware", n)] <= 1.0 for n in NODE_COUNTS),
    }
    return ExperimentResult(
        experiment_id="fleet_tail",
        title="Fleet p99 vs node count: session-affine round-robin vs "
              "power-aware dispatch (memcached, medium, nmap)",
        headers=headers, rows=rows,
        series={"normalized_p99": {f"{p}/{n}": v
                                   for (p, n), v in norm.items()}},
        expectations=expectations,
        notes=f"{N_SESSIONS} sessions, zipf skew {SESSION_SKEW}; the "
              f"session pool is fixed while the fleet grows, so affine "
              f"dispatch concentrates load (tail-at-scale).")
