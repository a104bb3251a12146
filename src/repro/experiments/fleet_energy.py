"""Fleet energy under power management vs a fleet-wide power cap.

Four ways to run the same fleet:

* ``performance`` — every core pinned at P0: the SLO baseline, and the
  energy ceiling.
* ``performance`` under a fleet budget of 65% of that ceiling — the
  fleet's :class:`~repro.cluster.power.BudgetArbiter` redistributes the
  watts by observed load, enforced as per-node P-state caps. The budget
  is honored, but blunt frequency capping breaks the tail.
* ``ondemand`` — saves a similar fraction, also at the tail's expense.
* ``nmap`` — the paper's packet-mode-driven governor: comparable fleet
  energy savings *and* the SLO holds, with no budget needed.
"""

from __future__ import annotations

from repro.cluster.config import FleetConfig
from repro.experiments import parallel
from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.system import ServerConfig
from repro.units import S

N_NODES = 3
N_SESSIONS = 24
SESSION_SKEW = 1.1
#: Fleet budget as a fraction of the measured uncapped-performance draw.
BUDGET_FRAC = 0.65


def fleet_config(scale: ExperimentScale, governor: str,
                 budget_w=None) -> FleetConfig:
    node = ServerConfig(app="memcached", load_level="medium",
                        freq_governor=governor, n_cores=scale.n_cores)
    return FleetConfig(node=node, n_nodes=N_NODES, policy="power-aware",
                       n_sessions=N_SESSIONS, session_skew=SESSION_SKEW,
                       fleet_budget_w=budget_w, seed=scale.seed + 1)


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    headers = ["governor", "budget (W)", "p99/SLO", "energy (J)",
               "mean power (W)", "vs performance (%)", "rebalances"]
    duration_s = scale.duration_ns / S

    baseline = run_cached(fleet_config(scale, "performance"),
                          scale.duration_ns)
    baseline_w = baseline.energy_j / duration_s
    budget_w = round(BUDGET_FRAC * baseline_w, 1)

    configs = [fleet_config(scale, "performance"),
               fleet_config(scale, "performance", budget_w=budget_w),
               fleet_config(scale, "ondemand"),
               fleet_config(scale, "nmap")]
    results = parallel.run_many([(c, scale.duration_ns) for c in configs])

    rows = []
    by_key = {}
    for config, result in zip(configs, results):
        key = (config.node.freq_governor,
               config.fleet_budget_w is not None)
        by_key[key] = result
        rows.append([config.node.freq_governor,
                     config.fleet_budget_w or "-",
                     round(result.slo_result().normalized_p99, 2),
                     round(result.energy_j, 3),
                     round(result.energy_j / duration_s, 1),
                     round(100 * (1 - result.energy_j
                                  / baseline.energy_j), 1),
                     result.rebalances])

    capped = by_key[("performance", True)]
    nmap = by_key[("nmap", False)]
    expectations = {
        "the coordinator keeps the fleet under its budget":
            capped.energy_j / duration_s <= budget_w * 1.05
            and capped.rebalances > 0,
        "capping the budget cuts energy versus uncapped performance":
            capped.energy_j < baseline.energy_j,
        "nmap saves fleet energy versus performance":
            nmap.energy_j < baseline.energy_j,
        "nmap holds the fleet SLO without a budget":
            nmap.slo_result().normalized_p99 <= 1.0,
    }
    return ExperimentResult(
        experiment_id="fleet_energy",
        title=f"Fleet energy: governors vs a {int(BUDGET_FRAC * 100)}% "
              f"fleet power cap ({N_NODES} nodes, memcached, medium)",
        headers=headers, rows=rows,
        series={"baseline_w": baseline_w, "budget_w": budget_w},
        expectations=expectations,
        notes="budget = 65% of measured uncapped-performance draw; the "
              "cap is honored but breaks the tail — nmap reaches "
              "similar savings with the SLO intact.")
