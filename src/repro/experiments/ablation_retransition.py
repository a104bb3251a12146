"""Ablation: why per-request DVFS fails on commodity processors (Sec. 5.1).

Runs an Adrenaline/Rubik-style per-request V/F manager twice: once on a
fantasy ~50 ns voltage regulator, once with the Xeon Gold 6134's measured
re-transition latency (~526 µs). The scheme only works on the fantasy
hardware — which is the paper's case for NMAP's coarser, NAPI-driven
decisions.
"""

from __future__ import annotations

from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.system import ServerConfig

VARIANTS = ("per-request-dvfs-ideal", "per-request-dvfs", "nmap")


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    rows = []
    satisfied = {}
    for governor in VARIANTS:
        config = ServerConfig(app="memcached", load_level="high",
                              freq_governor=governor,
                              n_cores=scale.n_cores, seed=scale.seed)
        result = run_cached(config, scale.duration_ns)
        satisfied[governor] = result.slo_result().satisfied
        rows.append([governor,
                     round(result.slo_result().normalized_p99, 2),
                     round(result.energy_j, 3)])
    expectations = {
        "per-request DVFS meets the SLO on ideal hardware":
            satisfied["per-request-dvfs-ideal"],
        "the real re-transition latency breaks per-request DVFS":
            not satisfied["per-request-dvfs"],
        "nmap holds the SLO on the same real hardware model":
            satisfied["nmap"],
    }
    return ExperimentResult(
        experiment_id="ablation_retransition",
        title="Per-request DVFS vs re-transition latency (memcached, high)",
        headers=["scheme", "p99/SLO", "energy (J)"], rows=rows,
        expectations=expectations)
