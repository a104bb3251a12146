"""Measurement and reporting: latencies, SLOs, time series, energy."""

from repro.metrics.latency import (LatencyStats, cdf_points, fraction_over,
                                   percentile_ns)
from repro.metrics.slo import SloResult, check_slo, find_inflection_load
from repro.metrics.timeseries import bin_counts, bin_last_value, mode_series
from repro.metrics.energy import EnergySummary, normalize_energy
from repro.metrics.fleet import (imbalance_ratio, node_p99s_ns,
                                 worst_node_p99_ns)
from repro.metrics.report import format_table
from repro.metrics.ascii_plot import mark_plot, sparkline, step_plot
from repro.metrics.export import (export_latencies_csv,
                                  export_mode_series_csv, export_table_csv)

__all__ = [
    "LatencyStats", "percentile_ns", "cdf_points", "fraction_over",
    "SloResult", "check_slo", "find_inflection_load",
    "bin_counts", "bin_last_value", "mode_series",
    "EnergySummary", "normalize_energy",
    "node_p99s_ns", "worst_node_p99_ns", "imbalance_ratio",
    "format_table",
    "sparkline", "step_plot", "mark_plot",
    "export_latencies_csv", "export_mode_series_csv", "export_table_csv",
]
