"""Ablation: NI_TH sensitivity (the design choice DESIGN.md calls out).

NMAP's boost trigger is "polling packets per interrupt > NI_TH". A tiny
threshold re-boosts on healthy polling (energy approaches performance);
a huge one reacts too late (latency approaches ondemand). The profiled
value sits in the regime that achieves both.
"""

from __future__ import annotations

from repro.core.nmap import NmapThresholds
from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.system import DEFAULT_NMAP_THRESHOLDS, ServerConfig

NI_SWEEP = (2.0, 20.0, 200.0, 2000.0)


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    rows = []
    p99 = {}
    profiled = DEFAULT_NMAP_THRESHOLDS["memcached"]
    for ni_th in NI_SWEEP:
        config = ServerConfig(
            app="memcached", load_level="high", freq_governor="nmap",
            n_cores=scale.n_cores, seed=scale.seed,
            nmap_thresholds=NmapThresholds(ni_th=ni_th,
                                           cu_th=profiled.cu_th))
        result = run_cached(config, scale.duration_ns)
        p99[ni_th] = result.slo_result().normalized_p99
        rows.append([ni_th, round(p99[ni_th], 3),
                     round(result.energy_j, 3)])
    expectations = {
        "later boosts can only hurt latency":
            p99[NI_SWEEP[-1]] >= p99[NI_SWEEP[0]],
        # An effectively-infinite threshold degenerates to ondemand,
        # which violates the SLO at high load.
        "an effectively-infinite NI_TH violates the SLO":
            p99[NI_SWEEP[-1]] > 1.0,
        "the profiled NI_TH lies within the sweep's lower range":
            NI_SWEEP[0] <= profiled.ni_th <= NI_SWEEP[2],
    }
    return ExperimentResult(
        experiment_id="ablation_ni_th",
        title="NI_TH sweep (memcached, high, nmap)",
        headers=["NI_TH", "p99/SLO", "energy (J)"], rows=rows,
        expectations=expectations,
        notes=f"profiled NI_TH = {profiled.ni_th:g}, CU_TH = "
              f"{profiled.cu_th:g}.")
