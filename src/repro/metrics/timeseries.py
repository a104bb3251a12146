"""Time-series binning for the paper's trace figures (1 ms bins)."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.units import MS


def bin_counts(times_ns: np.ndarray, duration_ns: int,
               bin_ns: int = 1 * MS,
               weights: np.ndarray = None) -> Tuple[np.ndarray, np.ndarray]:
    """Sum event weights per bin; returns (bin_start_times, sums).

    With ``weights=None`` each event counts 1 (e.g. ksoftirqd wakeups);
    with weights it sums them (e.g. packets per poll completion).
    """
    if duration_ns <= 0 or bin_ns <= 0:
        raise ValueError("duration and bin width must be positive")
    n_bins = int(np.ceil(duration_ns / bin_ns))
    edges = np.arange(n_bins + 1) * bin_ns
    times = np.asarray(times_ns, dtype=np.int64)
    sums, _ = np.histogram(times, bins=edges, weights=weights)
    return edges[:-1], sums


def bin_last_value(times_ns: np.ndarray, values: np.ndarray,
                   duration_ns: int, bin_ns: int = 1 * MS,
                   initial: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Sample a step signal at bin boundaries (e.g. the P-state trace).

    ``(times, values)`` are change events; each bin reports the value in
    effect at the *end* of the bin, carrying the last change forward.
    """
    if duration_ns <= 0 or bin_ns <= 0:
        raise ValueError("duration and bin width must be positive")
    n_bins = int(np.ceil(duration_ns / bin_ns))
    starts = np.arange(n_bins) * bin_ns
    times = np.asarray(times_ns, dtype=np.int64)
    vals = np.asarray(values, dtype=float)
    if times.size == 0:
        return starts, np.full(n_bins, initial)
    order = np.argsort(times, kind="stable")
    times, vals = times[order], vals[order]
    idx = np.searchsorted(times, starts + bin_ns, side="right") - 1
    out = np.where(idx >= 0, vals[np.clip(idx, 0, None)], initial)
    return starts, out


def mode_series(result, core_id: int,
                bin_ns: int = 1 * MS) -> Dict[str, np.ndarray]:
    """Per-bin packets processed in interrupt and polling mode for a core
    of a traced run: ``{"bins", "interrupt", "polling"}``."""
    trace = result.trace
    out: Dict[str, np.ndarray] = {}
    for mode in ("interrupt", "polling"):
        times, weights = trace.to_arrays(f"core{core_id}.pkts_{mode}")
        bins, sums = bin_counts(times, result.duration_ns, bin_ns,
                                weights=weights if weights.size else None)
        out["bins"] = bins
        out[mode] = sums
    return out
