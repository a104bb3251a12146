"""Rack-scale diurnal fleet: power-aware vs round-robin tail at 64 nodes.

A 64-node fleet serves an idle-heavy diurnal trace (short bursts over a
near-idle floor — datacenter utilization). The session pool is the same
size as the fleet, so the connection-affine round-robin balancer pins
roughly one zipf-weighted session per node: the hot sessions' bursts
concentrate on their home nodes and the *fleet* p99 blows up, while a
power-aware L7 balancer spreads each burst per-request across nodes
whose cores are already clocked up and holds the tail.

This is the scale the sharded lockstep driver exists for: both fleets
run across 4 worker processes with adaptive lookahead
(``FleetConfig.shards``/``max_stride_windows``), which is bit-identical
to the serial window-by-window loop (``tests/cluster/test_sharded.py``,
``tests/cluster/test_stride.py``) — so the experiment's numbers are
exactly what a serial run would produce, at a fraction of the wall time.
"""

from __future__ import annotations

from repro.cluster.config import FleetConfig
from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.system import ServerConfig
from repro.units import MS
from repro.workload.shapes import diurnal

N_NODES = 64
SHARDS = 4
POLICIES = ("round-robin", "power-aware")
#: ~1 session per node: strongest affinity skew (tail-at-scale).
N_SESSIONS = 64
SESSION_SKEW = 1.3
#: Diurnal trace (per core): 25% duty bursts over a near-idle floor.
PERIOD_NS = 20 * MS
DUTY = 0.25
PEAK_RPS = 16_000.0
TROUGH_RPS = 50.0


def fleet_config(scale: ExperimentScale, policy: str) -> FleetConfig:
    node = ServerConfig(
        app="memcached", freq_governor="nmap", n_cores=scale.n_cores,
        load_shape=diurnal(scale.duration_ns, PERIOD_NS, DUTY,
                           PEAK_RPS, TROUGH_RPS))
    return FleetConfig(node=node, n_nodes=N_NODES, policy=policy,
                       n_sessions=N_SESSIONS, session_skew=SESSION_SKEW,
                       shards=SHARDS, seed=scale.seed + 2)


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    headers = ["policy", "nodes", "fleet p99/SLO", "worst node p99/SLO",
               "imbalance", "energy (J)", "coalesce"]
    rows = []
    norm = {}
    for policy in POLICIES:
        config = fleet_config(scale, policy)
        result = run_cached(config, scale.duration_ns)
        fleet_norm = result.slo_result().normalized_p99
        worst_norm = (max(result.node_p99s_ns()) / result.slo_ns
                      if result.slo_ns else 0.0)
        norm[policy] = fleet_norm
        perf = result.perf
        rows.append([policy, config.n_nodes, round(fleet_norm, 2),
                     round(worst_norm, 2), round(result.imbalance(), 2),
                     round(result.energy_j, 3),
                     round(perf.coalesce_ratio, 1) if perf else None])

    expectations = {
        "affine round-robin violates the SLO on the diurnal trace":
            norm["round-robin"] > 1.0,
        "power-aware dispatch holds the fleet SLO at 64 nodes":
            norm["power-aware"] <= 1.0,
        "power-aware tail beats round-robin by 2x or more":
            norm["round-robin"] > 2 * norm["power-aware"],
    }
    return ExperimentResult(
        experiment_id="fleet_scale",
        title=f"{N_NODES}-node diurnal fleet ({SHARDS} shards): "
              f"power-aware vs session-affine round-robin tail "
              f"(memcached, nmap)",
        headers=headers, rows=rows,
        series={"normalized_p99": dict(norm)},
        expectations=expectations,
        notes=f"diurnal {PEAK_RPS:.0f}/{TROUGH_RPS:.0f} rps/core at "
              f"{DUTY:.0%} duty, {N_SESSIONS} sessions, zipf "
              f"{SESSION_SKEW}; sharded lockstep (shards={SHARDS}) is "
              f"bit-identical to serial, so results are "
              f"execution-mode-independent.")
