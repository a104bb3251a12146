"""Helpers for the trace-based figures (2, 7, 9, 16)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.metrics.timeseries import bin_last_value
from repro.system import RunResult
from repro.units import MS


def pstate_series(result: RunResult, core_id: int,
                  bin_ns: int = 1 * MS) -> np.ndarray:
    """P-state index sampled per bin (initial state is P0)."""
    times, values = result.trace.to_arrays(f"core{core_id}.pstate")
    _, values = bin_last_value(times, values,
                               result.duration_ns, bin_ns, initial=0.0)
    return values


def ksoftirqd_wake_times(result: RunResult, core_id: int) -> np.ndarray:
    """Times at which the core's ksoftirqd woke."""
    return result.trace.to_arrays(f"core{core_id}.ksoftirqd_wake")[0]


def boost_delays_ms(result: RunResult, core_id: int,
                    period_ns: int) -> List[Optional[float]]:
    """Per burst period: ms from burst start until the core reached P0.

    None when the core never reached P0 within that period. The first
    period is always skipped: every run starts at P0 (every governor's
    initial state), and a pre-existing P0 is not a reaction.
    """
    times, values = result.trace.to_arrays(f"core{core_id}.pstate")
    n_periods = result.duration_ns // period_ns
    delays: List[Optional[float]] = []
    for k in range(1, int(n_periods)):
        start, end = k * period_ns, (k + 1) * period_ns
        mask = (times >= start) & (times < end) & (values == 0)
        if mask.any():
            delays.append(float((times[mask][0] - start) / MS))
        else:
            delays.append(None)
    return delays
