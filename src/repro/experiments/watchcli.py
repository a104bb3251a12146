"""Observability subcommand: ``watch`` — live timeline dashboard.

``python -m repro.experiments watch <exp>`` re-runs one representative
configuration of an experiment with windowed timeline sampling enabled
and renders the series live in the terminal: one sparkline row per node
(p99 latency and power), monitor trips as they fire, and a final
summary. ``--fleet N`` watches a lockstep fleet instead of a single
node; ``--no-ui`` skips rendering and just writes the artifacts, which
is how CI generates its timeline CSV / flight-recorder uploads.

Determinism note: the simulation runs unmodified in a worker thread;
the UI thread only drains a queue fed by the timeline sink and paces
itself with ``time.sleep``. Refresh cadence therefore cannot perturb
the simulated run — the same config produces the same
``RunResult.timeline`` whether the dashboard repaints at 1 Hz, 20 Hz,
or not at all (``--no-ui``).
"""

from __future__ import annotations

import argparse
import queue
import threading
import time
from collections import deque
from typing import Dict, List

from repro.experiments.base import FULL, QUICK
from repro.experiments.registry import EXPERIMENTS
from repro.metrics.ascii_plot import sparkline
from repro.obs.prometheus import prometheus_timeline_text
from repro.obs.timeline import (NODE_COL, TimelineConfig, oscillation,
                                slo_burn, write_flight_dumps,
                                write_timeline_csv)
from repro.units import MS

_WIDTH = 48  # sparkline characters kept per series


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments watch",
        description="Watch one experiment's representative run as a live "
                    "windowed-timeline dashboard (or generate timeline "
                    "artifacts with --no-ui).")
    parser.add_argument("experiment", choices=list(EXPERIMENTS),
                        metavar="experiment",
                        help=f"one of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--app", help="override the application")
    parser.add_argument("--governor", help="override the DVFS governor")
    parser.add_argument("--load", help="override the load level")
    parser.add_argument("--full", action="store_true",
                        help="paper-sized scale (8 cores, longer run)")
    parser.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="watch a lockstep fleet of N nodes instead "
                             "of a standalone run")
    parser.add_argument("--shards", type=int, default=1, metavar="S",
                        help="worker processes for --fleet (timelines "
                             "are bit-identical for every value)")
    parser.add_argument("--crash-node", type=int, default=None,
                        metavar="I",
                        help="with --fleet: apply the node-kill fault "
                             "scenario to node I (exercises the flight "
                             "recorder)")
    parser.add_argument("--interval-ms", type=float, default=1.0,
                        metavar="T",
                        help="sample spacing in simulated ms "
                             "(default: 1.0)")
    parser.add_argument("--burn-budget", type=float, default=0.1,
                        metavar="B",
                        help="SLO burn-rate monitor error budget "
                             "(default: 0.1)")
    parser.add_argument("--abort-on-burn", action="store_true",
                        help="end the run early when the SLO burn-rate "
                             "monitor trips")
    parser.add_argument("--refresh", type=float, default=0.25,
                        metavar="SEC",
                        help="dashboard repaint period in wall seconds "
                             "(display only; default: 0.25)")
    parser.add_argument("--no-ui", action="store_true",
                        help="run without rendering (artifact "
                             "generation mode)")
    parser.add_argument("--csv", metavar="PATH",
                        help="write the timeline as CSV to PATH")
    parser.add_argument("--flight-out", metavar="PATH",
                        help="write flight-recorder dumps (JSONL) to "
                             "PATH")
    parser.add_argument("--prometheus", metavar="PATH",
                        help="write the timeline as timestamped "
                             "Prometheus series to PATH")
    return parser


def _timeline_config(args) -> TimelineConfig:
    monitors = (slo_burn(budget=args.burn_budget,
                         abort=args.abort_on_burn),
                oscillation())
    return TimelineConfig(interval_ns=int(args.interval_ms * MS),
                          monitors=monitors,
                          flight_windows=8,
                          flight_path=args.flight_out)


def _make_system(args, scale):
    """(system, duration_ns, n_nodes, slo_ns) for the requested run."""
    from repro.experiments.tracecli import representative_config

    tl = _timeline_config(args)
    node = representative_config(args.experiment, scale=scale,
                                 app=args.app, governor=args.governor,
                                 load=args.load)
    if args.fleet <= 0:
        if args.crash_node is not None:
            raise SystemExit("--crash-node requires --fleet")
        # Spans stay on (representative_config traces): flight dumps
        # then carry the recent sampled requests next to the windows.
        config = node.with_overrides(timeline=tl)
        from repro.system import ServerSystem
        system = ServerSystem(config)
        return system, scale.duration_ns, 1, system.app.slo_ns

    from repro.cluster.config import FleetConfig
    plans = {}
    if args.crash_node is not None:
        from repro.faults.scenarios import make_plan
        plans[args.crash_node] = make_plan("node-kill", scale.duration_ns)
    config = FleetConfig(node=node.with_overrides(trace=False),
                         n_nodes=args.fleet, seed=scale.seed,
                         shards=max(1, args.shards),
                         node_fault_plans=plans, timeline=tl)
    from repro.cluster.fleet import FleetSystem
    system = FleetSystem(config)
    # Display-only SLO scale: a throwaway app model (the nodes build
    # their own; a seeded dummy stream keeps this wall-clock-free).
    import random
    from repro.apps.registry import make_app
    from repro.sim.rng import derive_stream
    rng = random.Random(derive_stream(scale.seed, "watch-slo"))
    slo_ns = make_app(node.app, rng, **node.app_params).slo_ns
    return system, scale.duration_ns, args.fleet, slo_ns


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #

class _Board:
    """Rolling per-node series history behind the dashboard."""

    def __init__(self, n_nodes: int, slo_ns: int):
        self.slo_ns = slo_ns
        self.p99 = [deque(maxlen=_WIDTH) for _ in range(n_nodes)]
        self.power = [deque(maxlen=_WIDTH) for _ in range(n_nodes)]
        self.done = [0 for _ in range(n_nodes)]
        self.fleet_dispatched = 0
        self.t_ns = 0
        self.samples = 0
        self.trips: List[str] = []

    def take(self, t_ns, node_rows, fleet_row, events) -> None:
        self.t_ns = t_ns
        self.samples += 1
        p99_col, pw_col = NODE_COL["p99_ns"], NODE_COL["power_w"]
        done_col = NODE_COL["completed"]
        for i, row in enumerate(node_rows):
            self.p99[i].append(row[p99_col])
            self.power[i].append(row[pw_col])
            self.done[i] += int(row[done_col])
        if fleet_row is not None:
            self.fleet_dispatched += int(fleet_row[0])
        for event in events:
            self.trips.append(f"{t_ns / MS:8.1f}ms  {event.message}")

    def render(self, title: str) -> str:
        lines = [f"{title} — t={self.t_ns / MS:.1f}ms, "
                 f"{self.samples} samples", ""]
        slo_ms = self.slo_ns / MS
        for i, (p99s, powers) in enumerate(zip(self.p99, self.power)):
            p99_ms = (p99s[-1] / MS) if p99s else 0.0
            watts = powers[-1] if powers else 0.0
            # Scale the p99 sparkline against the SLO so "dense" rows
            # mean "near/over budget" on every node alike.
            spark_lat = sparkline(list(p99s), lo=0.0, hi=self.slo_ns)
            spark_pw = sparkline(list(powers))
            lines.append(
                f"node{i:<2d} p99 {p99_ms:7.3f}ms/{slo_ms:g} "
                f"|{spark_lat:<{_WIDTH}}| {watts:5.1f}W "
                f"|{spark_pw:<{_WIDTH}}| done {self.done[i]}")
        if self.fleet_dispatched:
            lines.append(f"fleet  dispatched {self.fleet_dispatched}")
        if self.trips:
            lines.append("")
            lines.append("monitor trips:")
            lines.extend("  " + t for t in self.trips[-6:])
        return "\n".join(lines)


def _run_live(system, duration_ns: int, board: _Board, title: str,
              refresh: float) -> object:
    """Run in a worker thread; repaint from the sink queue until done."""
    feed: "queue.Queue" = queue.Queue()
    system.timeline_sink = \
        lambda t, rows, fleet, events: feed.put((t, rows, fleet, events))

    holder: Dict[str, object] = {}

    def worker() -> None:
        try:
            holder["result"] = system.run(duration_ns)
        except BaseException as err:  # surfaced after the UI stops
            holder["error"] = err

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    try:
        while thread.is_alive() or not feed.empty():
            drained = False
            while True:
                try:
                    board.take(*feed.get_nowait())
                    drained = True
                except queue.Empty:
                    break
            if drained:
                print("\x1b[H\x1b[2J" + board.render(title), flush=True)
            time.sleep(refresh)
    except KeyboardInterrupt:
        print("\ninterrupted; waiting for the run to finish...")
    thread.join()
    if "error" in holder:
        raise holder["error"]
    return holder["result"]


def cmd_watch(argv) -> int:
    """``watch <exp>``: live dashboard / timeline artifact generator."""
    args = _build_parser().parse_args(argv)
    scale = FULL if args.full else QUICK
    system, duration_ns, n_nodes, slo_ns = _make_system(args, scale)
    mode = (f"fleet x{args.fleet} (shards={max(1, args.shards)})"
            if args.fleet > 0 else "standalone")
    title = f"watch {args.experiment} [{mode}, {scale.name}]"

    board = _Board(n_nodes, slo_ns)
    if args.no_ui:
        sink_board = board  # still tally trips for the summary line

        def sink(t, rows, fleet, events):
            sink_board.take(t, rows, fleet, events)

        system.timeline_sink = sink
        result = system.run(duration_ns)
    else:
        result = _run_live(system, duration_ns, board, title,
                           max(0.02, args.refresh))
        print("\x1b[H\x1b[2J" + board.render(title))

    timeline = result.timeline
    assert timeline is not None
    print(f"\n{title}: {len(timeline)} samples @ "
          f"{timeline.interval_ns / MS:g}ms, {len(timeline.events)} "
          f"monitor trips, {len(timeline.dumps)} flight dumps"
          + (f" (aborted at {timeline.aborted_at_ns / MS:.1f}ms)"
             if timeline.aborted_at_ns is not None else ""))

    if args.csv:
        n = write_timeline_csv(timeline, args.csv)
        print(f"wrote {args.csv} ({n} rows)")
    if args.flight_out:
        # flight_path already streamed dumps at finish(); rewrite so an
        # empty run still leaves a (zero-line) artifact for CI to grab.
        n = write_flight_dumps(timeline.dumps, args.flight_out)
        print(f"wrote {args.flight_out} ({n} lines, "
              f"{len(timeline.dumps)} dumps)")
    if args.prometheus:
        text = prometheus_timeline_text(timeline)
        with open(args.prometheus, "w") as fh:
            fh.write(text)
        print(f"wrote {args.prometheus}")
    return 0
