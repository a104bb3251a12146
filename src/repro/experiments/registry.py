"""Experiment registry: id -> harness."""

from __future__ import annotations

import importlib
from typing import Dict

from repro.experiments import parallel
from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale

#: All paper artifacts, in paper order: id -> the harness module (under
#: ``repro.experiments``) whose ``run`` it calls. Only the module of the
#: experiment that runs is imported.
EXPERIMENTS: Dict[str, str] = {
    "fig2": "fig02_mode_transitions",
    "fig3": "fig03_response_latency",
    "fig4": "fig04_latency_cdf",
    "tab1": "tab01_retransition",
    "tab2": "tab02_wakeup",
    "fig7": "fig07_cc6_entries",
    "fig8": "fig08_sleep_policies",
    "fig9": "fig09_nmap_trace",
    "fig10": "fig10_nmap_latency",
    "fig11": "fig11_nmap_cdf",
    "fig12": "fig12_p99",
    "fig13": "fig13_energy",
    "fig14": "fig14_sota_p99",
    "fig15": "fig15_sota_energy",
    "fig16": "fig16_changing_load",
    # The SLO-setting procedure behind Sec. 3.1 (not a numbered artifact).
    "slo": "slo_calibration",
    # Seed-sweep of the headline orderings (reproduction hygiene).
    "robustness": "robustness",
    # Per-core vs chip-wide advantage under skewed RSS (Sec. 6.3 claim).
    "imbalance": "imbalance",
    # Ablations of the design arguments (Secs. 5.1, 6.3; NI_TH, ITR).
    "ablation_retransition": "ablation_retransition",
    "ablation_ni_th": "ablation_ni_th",
    "ablation_itr": "ablation_itr",
    "ablation_dvfs": "ablation_dvfs",
    # Fleet extensions (repro.cluster): multi-node co-simulation.
    "fleet_tail": "fleet_tail",
    "fleet_energy": "fleet_energy",
    # Rack-scale sharded co-simulation (repro.cluster.sharded).
    "fleet_scale": "fleet_scale",
    # Fault injection (repro.faults): governors under degraded operation.
    "fault_resilience": "fault_resilience",
    # Kernel-bypass RX backends (repro.datapath) vs the kernel path.
    "datapath_duel": "datapath_duel",
    # Match-action RX pipeline (repro.p4): programmable steering vs RSS.
    "p4_steering": "p4_steering",
}


def _harness_module(experiment_id: str):
    """The harness module of experiment ``experiment_id``, imported."""
    if experiment_id not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment_id!r}; "
                         f"known: {list(EXPERIMENTS)}")
    return importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[experiment_id]}")


def describe_experiments() -> Dict[str, str]:
    """id -> one-line description (each harness module's first doc line)."""
    out = {}
    for experiment_id in EXPERIMENTS:
        doc = _harness_module(experiment_id).__doc__ or ""
        out[experiment_id] = doc.strip().splitlines()[0] if doc else ""
    return out


def run_experiment(experiment_id: str,
                   scale: ExperimentScale = QUICK,
                   workers: int = None) -> ExperimentResult:
    """Run one paper artifact's harness by id.

    ``workers`` > 1 fans the harness's independent simulation runs (grid
    cells, per-manager runs) out over a process pool; None keeps the
    ambient/environment worker count (``REPRO_WORKERS``, default serial).
    """
    run = _harness_module(experiment_id).run
    if workers is None:
        return run(scale)
    with parallel.using_workers(workers):
        return run(scale)
