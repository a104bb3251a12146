"""Fig. 16: changing load — NMAP vs the long-term Parties controller.

The load switches randomly between the memcached low/medium/high levels
every 500 ms while NMAP (thresholds unchanged!) and Parties manage power.
Paper: 0.18% of requests exceed the SLO under NMAP, 26.62% under Parties
— the 500 ms feedback loop cannot react to sub-100 ms bursts.
"""

from __future__ import annotations

from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.parallel import run_many
from repro.metrics.latency import fraction_over
from repro.sim.rng import RandomStreams
from repro.system import ServerConfig
from repro.units import MS, S
from repro.workload.changing import make_changing_load
from repro.workload.profiles import levels_for

PAPER_FRACTION_OVER_SLO = {"nmap": 0.18, "parties": 26.62}


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    duration_ns = 3 * S if scale.name == "quick" else 5 * S
    rng = RandomStreams(scale.seed).numpy_stream("changing-load")
    shape = make_changing_load(levels_for("memcached"), duration_ns,
                               switch_period_ns=500 * MS, rng=rng)
    headers = ["manager", "p99/SLO", "frac > SLO (%)", "paper (%)"]
    rows = []
    series = {}
    over = {}
    managers = ("nmap", "parties")
    configs = [ServerConfig(app="memcached", load_shape=shape,
                            freq_governor=manager,
                            n_cores=scale.n_cores, seed=scale.seed,
                            trace=True)
               for manager in managers]
    # The two managed runs are independent; fan out when workers allow.
    results = run_many([(config, duration_ns) for config in configs])
    for manager, result in zip(managers, results):
        frac = 100 * fraction_over(result.latencies_ns, result.slo_ns)
        over[manager] = frac
        rows.append([manager,
                     round(result.slo_result().normalized_p99, 2),
                     round(frac, 2), PAPER_FRACTION_OVER_SLO[manager]])
        series[manager] = {
            "latencies_ns": result.latencies_ns,
            "completion_times_ns": result.completion_times_ns,
            "pstate_trace": result.trace.to_arrays("core0.pstate"),
        }
    expectations = {
        "nmap keeps violations under 1% without re-profiling":
            over["nmap"] < 1.0,
        "parties misses the SLO for a large fraction (>5%)":
            over["parties"] > 5.0,
    }
    return ExperimentResult(
        experiment_id="fig16",
        title="Changing load: NMAP (fixed thresholds) vs Parties (500ms "
              "feedback)",
        headers=headers, rows=rows, series=series, expectations=expectations,
        notes=f"{duration_ns / S:.0f}s horizon, load level re-drawn every "
              "500ms (paper: 5s).")
