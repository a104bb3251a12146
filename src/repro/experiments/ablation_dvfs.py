"""Ablation: NMAP on a per-core vs a chip-wide DVFS domain.

Sec. 6.3 credits part of NMAP's edge over NCAP to per-core DVFS: on a
chip-wide domain every boost drags all cores to P0. With symmetric RSS
load the gap is modest; this ablation quantifies it on this substrate.
"""

from __future__ import annotations

from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.system import ServerConfig

DOMAINS = ("per-core", "chip-wide")


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    rows = []
    data = {}
    for domain in DOMAINS:
        config = ServerConfig(app="memcached", load_level="medium",
                              freq_governor="nmap", n_cores=scale.n_cores,
                              seed=scale.seed, dvfs_domain=domain)
        result = run_cached(config, scale.duration_ns)
        data[domain] = result
        rows.append([domain, round(result.slo_result().normalized_p99, 3),
                     round(result.energy_j, 3)])
    expectations = {
        "both domains meet the SLO": all(
            result.slo_result().satisfied for result in data.values()),
        # Chip-wide can only cost equal-or-more energy.
        "per-core costs no more energy than chip-wide (2% noise)":
            data["per-core"].energy_j <= data["chip-wide"].energy_j * 1.02,
    }
    return ExperimentResult(
        experiment_id="ablation_dvfs",
        title="NMAP on per-core vs chip-wide DVFS (memcached, medium)",
        headers=["DVFS domain", "p99/SLO", "energy (J)"], rows=rows,
        expectations=expectations)
