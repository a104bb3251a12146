"""Fig. 9: the Fig. 2 trace under NMAP.

To reproduce: NMAP maximizes V/F at the *early* part of each burst (vs
ondemand's mid-burst reaction in Fig. 2) and lowers it quickly once the
polling/interrupt ratio decays.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.experiments.traceutil import boost_delays_ms, ksoftirqd_wake_times
from repro.metrics.timeseries import mode_series
from repro.system import ServerConfig
from repro.workload.profiles import levels_for


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    headers = ["app", "governor", "boost delay (ms)",
               "P0 residency (% of time)"]
    rows = []
    series = {}
    expectations = {}
    for app in ("memcached", "nginx"):
        period = levels_for(app).level("high").period_ns
        delays_by_gov = {}
        for governor in ("nmap", "ondemand"):
            config = ServerConfig(app=app, load_level="high",
                                  freq_governor=governor,
                                  n_cores=scale.n_cores, seed=scale.seed,
                                  trace=True)
            result = run_cached(config, scale.duration_ns)
            delays = [d for d in boost_delays_ms(result, 0, period)
                      if d is not None]
            delays_by_gov[governor] = delays
            p0_frac = _p0_residency_fraction(result, 0)
            delay_txt = f"{np.mean(delays):.2f}" if delays else "never"
            rows.append([app, governor, delay_txt,
                         round(100 * p0_frac, 1)])
            series[f"{app}/{governor}"] = {
                "modes": mode_series(result, 0),
                "ksoftirqd_wakes": ksoftirqd_wake_times(result, 0),
                "boost_delays_ms": delays,
            }
        nmap_d, od_d = delays_by_gov["nmap"], delays_by_gov["ondemand"]
        # Bursts ramp over ~2.5 ms; "early part" means well before
        # ondemand's ~10 ms sampling reaction.
        expectations[f"{app}: NMAP boosts within 8ms of burst onset"] = \
            bool(nmap_d) and max(nmap_d) < 8.0
        expectations[f"{app}: NMAP boosts earlier than ondemand"] = \
            bool(nmap_d) and ((not od_d) or np.mean(nmap_d) < np.mean(od_d))
    return ExperimentResult(
        experiment_id="fig9",
        title="NMAP's mode-transition-driven boost (high load trace)",
        headers=headers, rows=rows, series=series, expectations=expectations)


def _p0_residency_fraction(result, core_id: int) -> float:
    times, values = result.trace.to_arrays(f"core{core_id}.pstate")
    if times.size == 0:
        return 1.0  # never left the initial P0
    spans = np.diff(np.append(times, result.duration_ns))
    in_p0 = float(times[0])  # initial state is P0 until the first change
    in_p0 += float(spans[values == 0].sum())
    return in_p0 / result.duration_ns
