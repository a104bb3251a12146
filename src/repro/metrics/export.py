"""Export run results to CSV for external plotting.

The repository has no plotting dependencies; these helpers dump the data
behind each figure so any tool (gnuplot, pandas, spreadsheets) can render
it.
"""

from __future__ import annotations

import csv
import os
from typing import Mapping, Sequence

import numpy as np

from repro.metrics.timeseries import mode_series
from repro.units import MS


def export_latencies_csv(result, path: str) -> int:
    """Write (completion_time_ns, latency_ns) rows; returns row count."""
    times = result.completion_times_ns
    latencies = result.latencies_ns
    _ensure_parent(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["completion_time_ns", "latency_ns"])
        for t, lat in zip(times, latencies):
            writer.writerow([int(t), int(lat)])
    return int(latencies.size)


def export_mode_series_csv(result, core_id: int, path: str,
                           bin_ns: int = 1 * MS) -> int:
    """Write per-bin NAPI-mode packet counts for a traced run."""
    modes = mode_series(result, core_id, bin_ns)
    _ensure_parent(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start_ns", "interrupt_pkts", "polling_pkts"])
        for start, intr, poll in zip(modes["bins"], modes["interrupt"],
                                     modes["polling"]):
            writer.writerow([int(start), float(intr), float(poll)])
    return len(modes["bins"])


def export_table_csv(headers: Sequence[str],
                     rows: Sequence[Sequence], path: str) -> int:
    """Write an experiment's table (as produced by its harness)."""
    if not headers:
        raise ValueError("need at least one column")
    _ensure_parent(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(headers))
        for row in rows:
            if len(row) != len(headers):
                raise ValueError("row width does not match headers")
            writer.writerow(list(row))
    return len(rows)


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
