"""Observability: request span tracing, telemetry registry, timelines.

Four pillars (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.span` — end-to-end request tracing. Sampled requests
  carry a :class:`~repro.obs.span.TraceContext`; instrumentation points
  in the NIC, NAPI, socket, application, and client layers stamp stage
  boundaries so a request's latency decomposes exactly into named spans.
* :mod:`repro.obs.registry` — typed Counter/Gauge/Histogram instruments
  with labels (core, subsystem), merged into ``RunResult.telemetry``.
* :mod:`repro.obs.timeline` / :mod:`repro.obs.monitors` — deterministic
  windowed time-series (counters as per-window deltas, gauges as
  snapshots) with SLO burn-rate / oscillation assertion monitors and a
  ring-buffer flight recorder, landing in ``RunResult.timeline``.
* :mod:`repro.obs.perfetto` / :mod:`repro.obs.prometheus` — exporters:
  Chrome/Perfetto ``trace_event`` JSON and Prometheus text format, both
  timeline-aware, plus CSV (``repro.obs.timeline.timeline_csv``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "registry": ("Counter", "Gauge", "Histogram", "TelemetryRegistry"),
    "span": ("STAGES", "RequestTrace", "SpanLog", "TraceContext"),
    "monitors": ("MonitorEvent", "MonitorSpec", "oscillation", "slo_burn"),
    "timeline": ("FlightDump", "Timeline", "TimelineConfig", "TimelineResult",
                 "timeline_csv", "write_flight_dumps", "write_timeline_csv"),
    "perfetto": ("fleet_perfetto_trace", "perfetto_trace", "write_perfetto"),
    "prometheus": ("prometheus_text", "prometheus_timeline_text"),
})
