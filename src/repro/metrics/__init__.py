"""Measurement and reporting: latencies, SLOs, time series, energy."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "latency": ("LatencyStats", "cdf_points", "fraction_over",
                "percentile_ns"),
    "slo": ("SloResult", "check_slo", "find_inflection_load"),
    "timeseries": ("bin_counts", "bin_last_value", "mode_series"),
    "energy": ("EnergySummary", "normalize_energy"),
    "fleet": ("imbalance_ratio", "node_p99s_ns"),
    "report": ("format_table",),
    "ascii_plot": ("mark_plot", "sparkline", "step_plot"),
    "export": ("export_latencies_csv", "export_mode_series_csv",
               "export_table_csv"),
})
