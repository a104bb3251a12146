"""Fig. 3: per-request response latency over a 0.5 s window.

ondemand produces millisecond-scale latency spikes at every burst while
performance keeps every request near the service floor.
"""

from __future__ import annotations

from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.system import ServerConfig


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    headers = ["app", "governor", "p50 (µs)", "p99 (µs)", "max (µs)",
               "frac > SLO (%)"]
    rows = []
    series = {}
    expectations = {}
    for app in ("memcached", "nginx"):
        p99 = {}
        frac = {}
        for governor in ("ondemand", "performance"):
            config = ServerConfig(app=app, load_level="high",
                                  freq_governor=governor,
                                  n_cores=scale.n_cores, seed=scale.seed)
            result = run_cached(config, scale.duration_ns)
            stats = result.latency_stats()
            slo = result.slo_result()
            p99[governor] = slo.p99_ns
            frac[governor] = slo.violation_fraction
            rows.append([app, governor,
                         round(stats.p50_ns / 1e3, 1),
                         round(stats.p99_ns / 1e3, 1),
                         round(stats.max_ns / 1e3, 1),
                         round(100 * slo.violation_fraction, 2)])
            series[f"{app}/{governor}"] = {
                "completion_times_ns": result.completion_times_ns,
                "latencies_ns": result.latencies_ns,
            }
        expectations[f"{app}: ondemand p99 above performance's (>1.5x)"] = \
            p99["ondemand"] > 1.5 * p99["performance"]
        expectations[f"{app}: ondemand misses SLO, performance does not"] = \
            frac["ondemand"] > 0.01 and frac["performance"] < 0.01
    return ExperimentResult(
        experiment_id="fig3",
        title="Per-request response latency, ondemand vs performance "
              "(high load)",
        headers=headers, rows=rows, series=series, expectations=expectations)
