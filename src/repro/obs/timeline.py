"""Windowed time-series telemetry: deterministic per-run timelines.

Everything else in ``repro.obs`` is an end-of-run aggregate; this module
adds the *when*. A run configured with a :class:`TimelineConfig` samples
each node at a fixed simulated-time cadence — counters as per-window
deltas, gauges as snapshots — and lands the series in
``RunResult.timeline`` / ``FleetResult.timeline``.

Determinism contract (enforced by tests):

* **Zero-cost when off.** ``timeline=None`` builds nothing and touches
  nothing; results are bit-identical to a build without this module.
* **Non-perturbing when on.** Sampling only splits ``run_until`` at
  sample barriers (exact, by event-kernel barrier invariance) and reads
  state through non-mutating projections — in particular energy via
  :meth:`~repro.cpu.power.PackageEnergy.project_total_j`, never through
  the accruing ``energy_j`` path, so float accumulation order is
  untouched and a timeline-on run is bit-identical to a timeline-off
  run.
* **Execution-mode invariant.** Fleet sample points sit on the lockstep
  window grid (the interval is rounded up to whole windows) and
  adaptive-lookahead strides are capped at sample barriers, so the
  sampled rows are identical across shard counts and stride settings.

On top of the raw series ride the assertion monitors
(``repro.obs.monitors``), evaluated master-side once per sample, and the
**flight recorder**: a bounded ring of recent windows dumped to a JSONL
post-mortem artifact when a monitor trips, a node-crash fault begins, or
the runtime sanitizer raises. See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.monitors import (MonitorEvent, MonitorSpec, make_monitors,
                                oscillation, slo_burn)
from repro.units import MS, S

__all__ = [
    "NODE_SERIES", "REGISTRY_COLUMNS", "FLEET_SERIES", "TimelineConfig",
    "Timeline", "TimelineResult", "TimelineSampler", "TimelineDriver",
    "FlightDump", "timeline_csv", "write_timeline_csv", "write_flight_dumps",
    "MonitorSpec", "MonitorEvent", "slo_burn", "oscillation",
]

#: Per-node series, in row order. Counters ("sent" .. "pstate_changes",
#: "energy_j") are per-window deltas; "p99_ns" is the window's completed
#: latencies' 99th percentile (0 when none completed); "power_w" /
#: "busy_frac" are window averages. The four ``pkts_*`` columns are the
#: per-backend datapath accounting modes (``repro.datapath``): NAPI
#: fills interrupt/polling, busy-poll fills busy_poll, Metronome fills
#: intermittent/polling; "poll_loops"/"sleep_wakes" count retrieval
#: batches and timer wakes the same way for every backend. The three
#: ``p4_*`` columns are the match-action pipeline (``repro.p4``) —
#: per-window table hits, misses, and pipeline drops; all zero when the
#: node runs no program.
NODE_SERIES = ("sent", "completed", "dropped", "timed_out", "retries",
               "gave_up", "p99_ns", "power_w", "energy_j", "busy_frac",
               "pkts_interrupt", "pkts_polling", "pkts_busy_poll",
               "pkts_intermittent", "poll_loops", "sleep_wakes",
               "pstate_changes", "p4_hits", "p4_misses", "p4_drops")

#: The registry-read columns of :data:`NODE_SERIES`: column -> the
#: ``(instrument name, label filter)`` series whose summed total the
#: sampler differentiates per window. "busy_frac" divides its delta by
#: cores x window. The columns absent here ("completed", "p99_ns",
#: "power_w", "energy_j") are read-only projections of the client's
#: completion log and the energy meters.
REGISTRY_COLUMNS: Dict[str, Tuple[Tuple[str, Dict[str, str]], ...]] = {
    "sent": (("requests_sent_total", {}),),
    "dropped": (("requests_dropped_total", {}),),
    "timed_out": (("requests_timed_out_total", {}),),
    "retries": (("requests_retried_total", {}),),
    "gave_up": (("requests_abandoned_total", {}),),
    "busy_frac": (("core_busy_ns", {}),),
    "pkts_interrupt": (("datapath_pkts_total", {"mode": "interrupt"}),),
    "pkts_polling": (("datapath_pkts_total", {"mode": "polling"}),),
    "pkts_busy_poll": (("datapath_pkts_total", {"mode": "busy-poll"}),),
    "pkts_intermittent": (("datapath_pkts_total",
                           {"mode": "intermittent"}),),
    "poll_loops": (("datapath_poll_loops_total", {}),
                   ("datapath_empty_polls_total", {})),
    "sleep_wakes": (("datapath_sleep_wakes_total", {}),),
    "pstate_changes": (("pstate_changes_total", {}),),
    "p4_hits": (("p4_table_hits_total", {}),),
    "p4_misses": (("p4_table_misses_total", {}),),
    "p4_drops": (("p4_packets_total", {"verdict": "dropped"}),),
}

#: Fleet-level series (``drive_lockstep`` counters, per-window deltas).
FLEET_SERIES = ("dispatched", "windows", "strides")

#: name -> row index, handed to monitors so they can read rows by name.
NODE_COL = {name: i for i, name in enumerate(NODE_SERIES)}


@dataclass(frozen=True)
class TimelineConfig:
    """Declarative, hashable timeline/monitor/flight-recorder request.

    Frozen so it can live inside cacheable run configs
    (``ServerConfig.timeline`` / ``FleetConfig.timeline``).
    """

    #: Sample spacing in simulated time. Fleet runs round it up to a
    #: whole number of lockstep windows so samples sit on barriers.
    interval_ns: int = 1 * MS
    #: Assertion monitors evaluated once per sample window.
    monitors: Tuple[MonitorSpec, ...] = ()
    #: Flight-recorder ring capacity in sample windows; 0 disables it.
    flight_windows: int = 0
    #: When set, flight dumps are also written to this JSONL path
    #: (appended in trigger order; see docs/OBSERVABILITY.md for the
    #: line format).
    flight_path: Optional[str] = None
    #: Dumps recorded per run beyond which further triggers are counted
    #: but not materialized (bounds post-mortem memory).
    max_flight_dumps: int = 4

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        if self.flight_windows < 0:
            raise ValueError("flight_windows must be >= 0")
        if self.max_flight_dumps < 1:
            raise ValueError("max_flight_dumps must be >= 1")
        if not isinstance(self.monitors, tuple):
            # Accept any iterable of specs but store hashably.
            object.__setattr__(self, "monitors", tuple(self.monitors))


class Timeline:
    """One entity's sampled series: columnar, append-only, comparable."""

    __slots__ = ("series_names", "t_ns", "dt_ns", "rows")

    def __init__(self, series_names: Sequence[str] = NODE_SERIES):
        self.series_names = tuple(series_names)
        #: Sample instants (window *ends*), simulated ns.
        self.t_ns: List[int] = []
        #: Window lengths; coalesced samples cover ``(t - dt, t]``.
        self.dt_ns: List[int] = []
        self.rows: List[Tuple[float, ...]] = []

    def append(self, t_ns: int, dt_ns: int,
               row: Sequence[float]) -> None:
        if len(row) != len(self.series_names):
            raise ValueError(f"row has {len(row)} values, timeline has "
                             f"{len(self.series_names)} series")
        self.t_ns.append(int(t_ns))
        self.dt_ns.append(int(dt_ns))
        self.rows.append(tuple(row))

    def __len__(self) -> int:
        return len(self.rows)

    def series(self, name: str) -> np.ndarray:
        """One named column as a float array."""
        idx = self.series_names.index(name)
        return np.array([row[idx] for row in self.rows], dtype=np.float64)

    def value(self, name: str, i: int) -> float:
        return self.rows[i][self.series_names.index(name)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return (self.series_names == other.series_names
                and self.t_ns == other.t_ns and self.dt_ns == other.dt_ns
                and self.rows == other.rows)

    def __repr__(self) -> str:
        return (f"<Timeline {len(self.rows)} samples x "
                f"{len(self.series_names)} series>")


@dataclass
class FlightDump:
    """The last N sample windows, frozen at a trigger instant."""

    #: What fired: ``"monitor"``, ``"node-crash"``, or ``"sanitizer"``.
    trigger: str
    reason: str
    t_ns: int
    #: Node the trigger names (monitor/crash); None for run-wide ones.
    node: Optional[int]
    series_names: Tuple[str, ...]
    #: Ring contents, oldest first: per window, t / dt / one row per node.
    t_windows: List[int]
    dt_windows: List[int]
    node_rows: List[List[Tuple[float, ...]]]
    fleet_series_names: Optional[Tuple[str, ...]] = None
    fleet_rows: Optional[List[Tuple[float, ...]]] = None
    #: Faults active at the trigger, as ``"kind@node<i>"`` strings.
    faults_active: List[str] = field(default_factory=list)
    #: Recent sampled request spans (standalone runs with span tracing;
    #: fleet spans live worker-side and are not shipped mid-run).
    spans: List[dict] = field(default_factory=list)

    def jsonl_lines(self) -> List[str]:
        """The dump as self-delimiting JSON lines (header first)."""
        lines = [json.dumps({
            "type": "flight-dump", "trigger": self.trigger,
            "reason": self.reason, "t_ns": self.t_ns, "node": self.node,
            "windows": len(self.t_windows),
            "series": list(self.series_names),
            "fleet_series": (list(self.fleet_series_names)
                             if self.fleet_series_names else None),
            "faults_active": self.faults_active,
        }, sort_keys=True)]
        for i, t in enumerate(self.t_windows):
            record = {"type": "window", "t_ns": t,
                      "dt_ns": self.dt_windows[i],
                      "nodes": [list(row) for row in self.node_rows[i]]}
            if self.fleet_rows is not None:
                record["fleet"] = list(self.fleet_rows[i])
            lines.append(json.dumps(record, sort_keys=True))
        for span in self.spans:
            lines.append(json.dumps({"type": "span", **span},
                                    sort_keys=True))
        lines.append(json.dumps({"type": "end", "t_ns": self.t_ns},
                                sort_keys=True))
        return lines


@dataclass
class TimelineResult:
    """The sampled timeline of one run (standalone or fleet)."""

    #: Effective sample spacing (interval rounded up to lockstep
    #: windows for fleet runs).
    interval_ns: int
    #: One per node; standalone runs have exactly one.
    nodes: List[Timeline]
    #: Fleet-level series (dispatch/stride deltas); None standalone.
    fleet: Optional[Timeline]
    events: List[MonitorEvent]
    dumps: List[FlightDump]
    #: Trigger count beyond ``max_flight_dumps`` (dumps not kept).
    dumps_suppressed: int = 0
    #: Where an ``abort=True`` monitor truncated the run; None when the
    #: run covered its full requested duration.
    aborted_at_ns: Optional[int] = None

    def node(self, i: int = 0) -> Timeline:
        return self.nodes[i]

    def __len__(self) -> int:
        return len(self.nodes[0]) if self.nodes else 0

    def register_into(self, registry, subsystem: str = "timeline") -> None:
        """Export summary instruments into a telemetry registry."""
        registry.gauge("timeline_samples", "Sample windows recorded",
                       subsystem=subsystem).set(len(self))
        registry.gauge("timeline_interval_ns",
                       "Effective sample spacing (simulated ns)",
                       subsystem=subsystem).set(self.interval_ns)
        for event in self.events:
            registry.counter("monitor_trips_total",
                             "Assertion-monitor trips",
                             subsystem=subsystem, monitor=event.monitor,
                             node=str(event.node)).inc()
        for dump in self.dumps:
            registry.counter("flight_dumps_total",
                             "Flight-recorder dumps taken",
                             subsystem=subsystem,
                             trigger=dump.trigger).inc()


class TimelineSampler:
    """Non-perturbing per-node sampler; lives where the node lives.

    Reads the node's counters through the live instruments of
    ``system.telemetry`` — the ones the end-of-run telemetry freezes
    (plain counters and raw, unflushed busy residency) — plus the
    client's completion log and the read-only energy projection, never
    anything that would move an accrual checkpoint or reorder float
    accumulation. Both fleet backends run this same code worker-side,
    which is why sharded and in-process timelines are bit-identical.
    """

    def __init__(self, system):
        self._system = system
        self._lat_idx = 0
        self._last_t_ns = 0
        self._prev_energy_j = 0.0
        self._prev_totals = dict.fromkeys(REGISTRY_COLUMNS, 0)
        #: Each column's instruments: all are registered when the system
        #: is built (per core, per table), so they are selected once.
        telemetry = system.telemetry
        self._columns = {
            column: [inst for name, labels in series
                     for inst in telemetry.select(name, **labels)]
            for column, series in REGISTRY_COLUMNS.items()}

    def sample(self, t_ns: int) -> Tuple[float, ...]:
        """The node's :data:`NODE_SERIES` row for the window ending at
        ``t_ns`` (the window starts at the previous sample)."""
        system = self._system
        dt_ns = t_ns - self._last_t_ns
        self._last_t_ns = t_ns

        self._lat_idx, window_lats = system.client.window_latencies(
            self._lat_idx, t_ns)
        completed = len(window_lats)
        p99_ns = (float(np.percentile(
            np.asarray(window_lats, dtype=np.int64), 99.0))
            if completed else 0.0)

        energy_j = system.processor.energy.project_total_j(t_ns)
        d_energy_j = energy_j - self._prev_energy_j
        self._prev_energy_j = energy_j

        row = {}  # plain loops: a comprehension would be one more call
        prev = self._prev_totals
        for column, instruments in self._columns.items():
            total = 0
            for inst in instruments:
                total += inst.value
            row[column] = total - prev[column]
            prev[column] = total

        n_cores = len(system.processor.cores)
        row["busy_frac"] = (row["busy_frac"] / (n_cores * dt_ns)
                            if dt_ns > 0 and n_cores else 0.0)
        row["completed"] = completed
        row["p99_ns"] = p99_ns
        row["power_w"] = d_energy_j / (dt_ns / S) if dt_ns > 0 else 0.0
        row["energy_j"] = d_energy_j
        return tuple([float(row[column]) for column in NODE_SERIES])


class TimelineDriver:
    """Master-side sampling state machine (standalone and fleet runs).

    Owns the sample grid, row storage, monitor evaluation, the flight
    ring, and the optional live sink — everything that happens *with*
    sampled rows. Producing the rows is the backend's job
    (:class:`TimelineSampler`), which is what lets sharded workers
    sample locally and ship rows in their barrier acks.
    """

    def __init__(self, config: TimelineConfig, *, slo_ns: int,
                 n_nodes: int, duration_ns: int,
                 window_ns: Optional[int] = None,
                 fault_windows: Sequence[Tuple[int, int, str, int]] = (),
                 fleet: bool = False,
                 sink: Optional[Callable] = None,
                 span_source: Optional[Callable[[int], List[dict]]] = None):
        self.config = config
        sample_ns = config.interval_ns
        if window_ns is not None:
            # Fleet runs sample at lockstep barriers only: round the
            # interval up to whole windows so every sample point is a
            # barrier the stride planner can (and must) stop at.
            sample_ns = max(window_ns,
                            -(-sample_ns // window_ns) * window_ns)
        self.sample_ns = sample_ns
        self.duration_ns = duration_ns
        self.nodes = [Timeline() for _ in range(n_nodes)]
        self.fleet: Optional[Timeline] = (Timeline(FLEET_SERIES)
                                          if fleet else None)
        self.monitors = make_monitors(config.monitors, slo_ns=slo_ns,
                                      n_nodes=n_nodes, col=NODE_COL)
        self.events: List[MonitorEvent] = []
        self.dumps: List[FlightDump] = []
        self.dumps_suppressed = 0
        self.aborted_at_ns: Optional[int] = None
        self._ring: Optional[deque] = (deque(maxlen=config.flight_windows)
                                       if config.flight_windows else None)
        #: (start, end, kind, node), start-sorted; crash triggers and
        #: the "faults active at trigger" dump annotation read this.
        self._fault_windows = sorted(fault_windows)
        self._crash_starts = [(start, node) for start, _, kind, node
                              in self._fault_windows
                              if kind == "node-crash"]
        self._crash_idx = 0
        self._last_t_ns = 0
        self._prev_fleet = (0, 0, 0)
        self._sink = sink
        self._span_source = span_source

    # ----------------------------------------------------------------- #
    # Sample scheduling
    # ----------------------------------------------------------------- #

    def next_grid_ns(self, t_ns: int) -> int:
        """The first sample barrier strictly after ``t_ns``."""
        return (t_ns // self.sample_ns + 1) * self.sample_ns

    def due(self, run_to_ns: int) -> bool:
        """Whether a span ending at ``run_to_ns`` must sample."""
        return (run_to_ns >= self.duration_ns
                or run_to_ns % self.sample_ns == 0)

    # ----------------------------------------------------------------- #
    # Per-sample processing
    # ----------------------------------------------------------------- #

    def on_sample(self, t_ns: int,
                  node_rows: Sequence[Tuple[float, ...]],
                  fleet_totals: Optional[Tuple[int, int, int]] = None
                  ) -> bool:
        """Record one sample; returns True when the run must abort."""
        dt_ns = t_ns - self._last_t_ns
        self._last_t_ns = t_ns
        for timeline, row in zip(self.nodes, node_rows):
            timeline.append(t_ns, dt_ns, row)
        fleet_row = None
        if self.fleet is not None and fleet_totals is not None:
            fleet_row = tuple(float(c - p) for c, p in
                              zip(fleet_totals, self._prev_fleet))
            self._prev_fleet = fleet_totals
            self.fleet.append(t_ns, dt_ns, fleet_row)
        if self._ring is not None:
            self._ring.append((t_ns, dt_ns, list(node_rows), fleet_row))

        new_events: List[MonitorEvent] = []
        for monitor in self.monitors:
            new_events.extend(monitor.observe(t_ns, node_rows))
        abort = False
        for event in new_events:
            self.events.append(event)
            self._dump("monitor", event.message, t_ns, event.node)
            if event.abort:
                abort = True

        # Node-crash fault starts inside this window trigger a dump even
        # without monitors: the post-mortem question "what was the node
        # doing when it died" is exactly what the ring answers.
        while (self._crash_idx < len(self._crash_starts)
               and self._crash_starts[self._crash_idx][0] <= t_ns):
            start, node = self._crash_starts[self._crash_idx]
            self._crash_idx += 1
            self._dump("node-crash",
                       f"node {node} crash fault began at {start} ns",
                       t_ns, node)

        if self._sink is not None:
            self._sink(t_ns, node_rows, fleet_row, new_events)
        if abort and self.aborted_at_ns is None:
            self.aborted_at_ns = t_ns
        return abort

    def on_sanitizer_error(self, message: str) -> None:
        """Dump the ring on a runtime-sanitizer violation (the run is
        about to die with the error; the artifact is the post-mortem)."""
        self._dump("sanitizer", message, self._last_t_ns, None)
        if self.config.flight_path:
            write_flight_dumps(self.dumps, self.config.flight_path)

    # ----------------------------------------------------------------- #

    def _dump(self, trigger: str, reason: str, t_ns: int,
              node: Optional[int]) -> None:
        if self._ring is None or not self._ring:
            return
        if len(self.dumps) >= self.config.max_flight_dumps:
            self.dumps_suppressed += 1
            return
        t_windows = [entry[0] for entry in self._ring]
        dt_windows = [entry[1] for entry in self._ring]
        node_rows = [entry[2] for entry in self._ring]
        fleet_rows = ([entry[3] for entry in self._ring]
                      if self.fleet is not None else None)
        active = [f"{kind}@node{nid}"
                  for start, end, kind, nid in self._fault_windows
                  if start <= t_ns < end]
        spans: List[dict] = []
        if self._span_source is not None:
            spans = self._span_source(t_windows[0] - dt_windows[0])
        self.dumps.append(FlightDump(
            trigger=trigger, reason=reason, t_ns=t_ns, node=node,
            series_names=NODE_SERIES, t_windows=t_windows,
            dt_windows=dt_windows, node_rows=node_rows,
            fleet_series_names=(FLEET_SERIES if fleet_rows is not None
                                else None),
            fleet_rows=fleet_rows, faults_active=active, spans=spans))

    def finish(self) -> TimelineResult:
        """Seal the run's timeline (writes pending flight artifacts)."""
        if self.dumps and self.config.flight_path:
            write_flight_dumps(self.dumps, self.config.flight_path)
        return TimelineResult(
            interval_ns=self.sample_ns, nodes=self.nodes,
            fleet=self.fleet, events=self.events, dumps=self.dumps,
            dumps_suppressed=self.dumps_suppressed,
            aborted_at_ns=self.aborted_at_ns)


def recent_spans(span_log, since_ns: int, cap: int = 64) -> List[dict]:
    """Recent sampled spans as JSON-able dicts (flight-dump payload)."""
    out = [{"request_id": r.request_id, "kind": r.kind,
            "core_id": r.core_id, "created_ns": r.created_ns,
            "completed_ns": r.completed_ns}
           for r in span_log.records if r.completed_ns >= since_ns]
    return out[-cap:]


# --------------------------------------------------------------------- #
# Exporters (CSV here; Prometheus/Perfetto live with their formats).
# --------------------------------------------------------------------- #

def timeline_csv(result: TimelineResult) -> str:
    """The timeline as CSV: one line per (sample, node), plus ``fleet``
    lines carrying the fleet-level series when present."""
    import csv
    import io

    fleet_names = list(result.fleet.series_names) if result.fleet else []
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t_ns", "dt_ns", "node"]
                    + list(NODE_SERIES) + fleet_names)
    n_samples = len(result)
    for i in range(n_samples):
        for nid, timeline in enumerate(result.nodes):
            writer.writerow([timeline.t_ns[i], timeline.dt_ns[i], nid]
                            + [repr(v) for v in timeline.rows[i]]
                            + [""] * len(fleet_names))
        if result.fleet is not None:
            writer.writerow([result.fleet.t_ns[i], result.fleet.dt_ns[i],
                             "fleet"] + [""] * len(NODE_SERIES)
                            + [repr(v) for v in result.fleet.rows[i]])
    return buf.getvalue()


def _ensure_parent(path: str) -> None:
    from pathlib import Path
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def write_timeline_csv(result: TimelineResult, path: str) -> int:
    """Write the CSV dump to ``path``; returns the data-line count."""
    text = timeline_csv(result)
    _ensure_parent(path)
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n") - 1


def write_flight_dumps(dumps: Sequence[FlightDump], path: str) -> int:
    """Write flight dumps as one JSONL artifact; returns line count.

    Each dump is a self-delimiting block (``flight-dump`` header,
    ``window`` lines oldest-first, optional ``span`` lines, ``end``),
    so multiple dumps concatenate cleanly.
    """
    lines: List[str] = []
    for dump in dumps:
        lines.extend(dump.jsonl_lines())
    _ensure_parent(path)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)
