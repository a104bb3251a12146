"""Fig. 7: when does the menu governor enter the deepest sleep state?

The paper's observation: under the performance governor the core enters
CC6 between bursts and at the *early* stage of a burst, but not from the
middle of a burst onward (where it is processing packets intensively) —
hence the deepest state's wake-up latency does not hurt the tail.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.metrics.timeseries import mode_series
from repro.system import ServerConfig
from repro.workload.profiles import levels_for


def _cc6_entry_times(result, core_id: int) -> np.ndarray:
    times, values = result.trace.to_arrays(f"core{core_id}.cstate")
    return times[values == 2.0]


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    headers = ["load", "CC6 entries", "in idle gap (%)",
               "in burst 2nd half (%)"]
    rows = []
    series = {}
    expectations = {}
    level_profile = levels_for("memcached")
    for level in ("low", "high"):
        config = ServerConfig(app="memcached", load_level=level,
                              freq_governor="performance",
                              n_cores=scale.n_cores, seed=scale.seed,
                              trace=True)
        result = run_cached(config, scale.duration_ns)
        spec = level_profile.level(level)
        entries = _cc6_entry_times(result, 0)
        phase = (entries % spec.period_ns) / spec.period_ns
        burst_frac = spec.duty
        in_gap = float(np.mean(phase >= burst_frac)) if entries.size else 0.0
        late_burst = float(np.mean((phase >= burst_frac / 2)
                                   & (phase < burst_frac))) \
            if entries.size else 0.0
        rows.append([level, int(entries.size), round(100 * in_gap, 1),
                     round(100 * late_burst, 1)])
        series[level] = {"cc6_entries_ns": entries,
                         "modes": mode_series(result, 0)}
        expectations[f"{level}: CC6 entries exist"] = entries.size > 0
        expectations[f"{level}: CC6 mostly outside the burst body"] = \
            in_gap + (1 - in_gap - late_burst) >= 0.5
    return ExperimentResult(
        experiment_id="fig7",
        title="CC6 (deepest sleep) entries vs packet processing "
              "(memcached, performance governor)",
        headers=headers, rows=rows, series=series, expectations=expectations)
