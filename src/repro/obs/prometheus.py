"""Prometheus text-format rendering of a :class:`TelemetryRegistry`.

Implements the exposition format (v0.0.4) subset that covers the three
instrument kinds: ``# HELP``/``# TYPE`` headers, labelled samples, and
histogram ``_bucket``/``_sum``/``_count`` series with cumulative ``le``
bounds. The output is stable (sorted names and label sets), so golden
files can diff it.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List

from repro.obs.registry import Histogram, TelemetryRegistry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize_name(name: str) -> str:
    name = _NAME_OK.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _sanitize_label(name: str) -> str:
    # Label names follow [a-zA-Z_][a-zA-Z0-9_]*: character class AND
    # no leading digit (same guard as metric names).
    name = _LABEL_OK.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    # Label values escape backslash, newline, and the double quote.
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(value: str) -> str:
    # HELP text is not quoted, so the exposition format escapes ONLY
    # backslash and newline there — escaping quotes too renders a
    # spurious ``\"`` that scrapers show literally.
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{_sanitize_label(k)}="{_escape_label(v)}"'
             for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == math.inf:
            return "+Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def prometheus_text(registry: TelemetryRegistry) -> str:
    """The registry in Prometheus exposition format (trailing newline)."""
    lines: List[str] = []
    seen_header = set()
    for name, labels, kind, instrument in registry.items():
        metric = _sanitize_name(name)
        if metric not in seen_header:
            seen_header.add(metric)
            help_text = registry.help_of(name)
            if help_text:
                lines.append(f"# HELP {metric} {_escape_help(help_text)}")
            lines.append(f"# TYPE {metric} {kind}")
        if isinstance(instrument, Histogram):
            for le, cum in instrument.cumulative_buckets():
                label_str = _render_labels(labels, f'le="{_fmt(le)}"')
                lines.append(f"{metric}_bucket{label_str} {cum}")
            label_str = _render_labels(labels)
            lines.append(f"{metric}_sum{label_str} {_fmt(instrument.sum)}")
            lines.append(f"{metric}_count{label_str} {instrument.count}")
        else:
            label_str = _render_labels(labels)
            lines.append(f"{metric}{label_str} {_fmt(instrument.value)}")
    return "\n".join(lines) + "\n"


def prometheus_timeline_text(result, prefix: str = "timeline") -> str:
    """A ``TimelineResult`` as timestamped Prometheus series.

    One gauge metric per timeline series; each sample window renders one
    timestamped sample line (exposition-format timestamps are integer
    milliseconds — here *simulated* milliseconds, so the series plots
    against sim time). Node series carry a ``node`` label; fleet-level
    series none. Backfill-style export for plotting/import, not a live
    scrape target.
    """
    lines: List[str] = []

    def emit(series_names, entities, help_suffix):
        for col, sname in enumerate(series_names):
            metric = _sanitize_name(f"{prefix}_{sname}")
            lines.append(f"# HELP {metric} "
                         f"{_escape_help(sname + help_suffix)}")
            lines.append(f"# TYPE {metric} gauge")
            for labels, tl in entities:
                label_str = _render_labels(labels)
                for i, t_ns in enumerate(tl.t_ns):
                    lines.append(f"{metric}{label_str} "
                                 f"{_fmt(float(tl.rows[i][col]))} "
                                 f"{t_ns // 1_000_000}")

    if result.nodes:
        emit(result.nodes[0].series_names,
             [({"node": str(i)}, tl) for i, tl in enumerate(result.nodes)],
             " per sample window (simulated-ms timestamps)")
    if result.fleet is not None:
        emit(result.fleet.series_names, [({}, result.fleet)],
             " per sample window, fleet-level (simulated-ms timestamps)")
    return "\n".join(lines) + "\n"
