#!/usr/bin/env python
"""Event-loop microbenchmark: a schedule/fire/cancel mix.

Exercises the simulator kernel the way the server model does — bursts of
same-timestamp events, self-rescheduling chains, periodic timers, and a
steady stream of armed-then-cancelled timeouts (the scheduler and NIC
moderation pattern) — and records the sustained events/sec into
``BENCH_eventloop.json`` so the perf trajectory is tracked across PRs.

Figures come from one source of truth: the kernel's own
:class:`~repro.sim.perf.PerfSnapshot`. Its model counters are exported
through :meth:`~repro.sim.perf.PerfSnapshot.register_into`, the same
gauges every ``RunResult``'s telemetry carries, and its wall time and
events/sec through :func:`~repro.sim.perf.host_registry`, the exporter
``trace --prometheus`` uses too, so no two reports can disagree on
definitions.

A second pass re-runs the mix with one trace record site per burst
event, taken the way an untraced run takes it: the site's recorder is
None (an untraced run's ``sim.trace``), so each event pays only the
``if trace is not None`` guard. That measures the observability
hot-path tax when tracing is off; ``--assert-overhead PCT`` turns it
into a CI gate.

A third pass runs the mix on a ``Simulator(sanitize=True)`` — the
runtime invariant checker of :mod:`repro.analysis.sanitize` — and
records its slowdown. ``--assert-sanitize-overhead PCT`` gates it
(the documented budget is <2x, i.e. 100%).

A fourth measurement leaves the microbenchmark and times one small
*server* run with and without windowed timeline sampling
(``repro.obs.timeline``, 1 ms interval) — the cost of splitting
``run_until`` at sample barriers plus the per-window row reads.
``--assert-timeline-overhead PCT`` gates it (CI budget: 15).

``--backend NAME`` adds a fifth measurement: one small server run on
that RX datapath (``repro.datapath``), recording wall seconds,
simulated events/sec, the event heap's peak length and the cancelled
events under ``datapath_backends`` — the spin-chunked busy-poll loop is
the event-rate stress case, and nmap-hybrid's slice and retrieval
timers the cancelled-timer one, worth tracking across PRs.

``--assert-analysis-time SECONDS`` adds a sixth: one cold run of the
interprocedural flow engine (:mod:`repro.analysis.flow`) over all of
``src/repro`` — parse, index, fixpoint, report. The gate keeps the
CI analysis job interactive-fast (budget: 30 s; the dev container
measures ~2 s) and catches a fixpoint that stops converging.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--out PATH]
        [--rounds N] [--assert-overhead PCT]
        [--assert-sanitize-overhead PCT]
        [--assert-timeline-overhead PCT]
        [--backend NAME ...] [--assert-analysis-time SECONDS]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import TelemetryRegistry  # noqa: E402
from repro.sim.perf import host_registry  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402


def _noop() -> None:
    pass


def _run_mix(n_rounds: int, trace_site: bool = False,
             sanitize: bool = False) -> dict:
    """One measured pass; returns the kernel's snapshot as gauge values.

    With ``trace_site``, every burst event also passes one record site
    with tracing off (``trace`` is None, as ``sim.trace`` is on an
    untraced run) — the per-event cost a probe site pays when tracing
    is switched off. With ``sanitize``, the pass runs on a sanitized
    simulator (generation-checked handles, causality checks).
    """
    sim = Simulator(sanitize=sanitize)

    if not trace_site:
        burst_cb = _noop
    else:
        trace = None

        def burst_cb() -> None:
            if trace is not None:
                trace.record("bench.burst", 0)

    def arm_round(i: int) -> None:
        # A burst of same-timestamp events (packet arrivals).
        for _ in range(8):
            sim.schedule(10, burst_cb)
        # A timeout armed and immediately cancelled (timer churn).
        sim.schedule(1_000, _noop).cancel()
        if i + 1 < n_rounds:
            sim.schedule(7, arm_round, i + 1)

    sim.schedule(0, arm_round, 0)
    # A periodic tick riding along, as the power managers do.
    timer = sim.every(1_000, _noop)
    t_start = time.perf_counter()
    sim.run_until(n_rounds * 7 + 100)
    wall_s = time.perf_counter() - t_start
    timer.stop()

    perf = sim.perf_snapshot(wall_s=wall_s)
    registry = TelemetryRegistry()
    perf.register_into(registry)
    return {name: instrument.value
            for reg in (registry, host_registry(perf))
            for name, _labels, _kind, instrument in reg.items()}


def _time_server(timeline: bool, duration_ms: int = 100) -> float:
    """Wall seconds of one small server run, timeline on or off."""
    from repro.obs.timeline import TimelineConfig
    from repro.system import ServerConfig, ServerSystem
    from repro.units import MS

    config = ServerConfig(app="memcached", load_level="medium",
                          freq_governor="nmap", n_cores=2,
                          timeline=TimelineConfig(interval_ns=1 * MS)
                          if timeline else None)
    system = ServerSystem(config)
    t0 = time.perf_counter()
    system.run(duration_ms * MS)
    return time.perf_counter() - t0


def _time_backend(datapath: str, duration_ms: int = 100) -> dict:
    """Wall seconds, kernel event rate, heap peak and cancelled events
    of one run on ``datapath``."""
    from repro.system import ServerConfig, ServerSystem
    from repro.units import MS

    governor = {"poll": "performance", "nmap-hybrid": "nmap"}.get(
        datapath, "ondemand")
    config = ServerConfig(app="memcached", load_level="medium",
                          freq_governor=governor, n_cores=2,
                          datapath=datapath)
    system = ServerSystem(config)
    t0 = time.perf_counter()
    result = system.run(duration_ms * MS)
    wall_s = time.perf_counter() - t0
    return {"wall_seconds": round(wall_s, 4),
            "events_fired": result.perf.events_fired,
            "events_per_sec": round(result.perf.events_fired / wall_s)
            if wall_s > 0 else 0,
            "heap_peak": result.perf.heap_peak,
            "events_cancelled": result.perf.events_cancelled,
            "completed": result.completed}


def _best(passes: list) -> dict:
    return max(passes, key=lambda p: p["sim_events_per_sec"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=100_000,
                        help="workload rounds per pass (10 events each)")
    parser.add_argument("--passes", type=int, default=3,
                        help="measured passes; the best is recorded")
    parser.add_argument("--assert-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail if the disabled-tracing pass is more "
                             "than PCT%% slower than the baseline")
    parser.add_argument("--assert-sanitize-overhead", type=float,
                        default=None, metavar="PCT",
                        help="fail if the sanitized pass is more than "
                             "PCT%% slower than the baseline (budget: "
                             "100, i.e. <2x)")
    parser.add_argument("--assert-timeline-overhead", type=float,
                        default=None, metavar="PCT",
                        help="fail if the timeline-sampled server run is "
                             "more than PCT%% slower than the unsampled "
                             "one (CI budget: 15)")
    parser.add_argument("--backend", action="append", default=None,
                        metavar="NAME",
                        help="also time one small server run on this RX "
                             "datapath (repeatable; e.g. --backend poll)")
    parser.add_argument("--assert-analysis-time", type=float,
                        default=None, metavar="SECONDS",
                        help="time one cold interprocedural flow "
                             "analysis of src/repro and fail if it "
                             "takes longer than SECONDS (CI budget: 30)")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_eventloop.json",
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    base_passes = [_run_mix(args.rounds) for _ in range(args.passes)]
    base = _best(base_passes)

    traced = _best([_run_mix(args.rounds, trace_site=True)
                    for _ in range(args.passes)])
    overhead_pct = 100.0 * (traced["sim_wall_seconds"]
                            / base["sim_wall_seconds"] - 1.0) \
        if base["sim_wall_seconds"] > 0 else 0.0

    sanitized = _best([_run_mix(args.rounds, sanitize=True)
                       for _ in range(args.passes)])
    sanitize_overhead_pct = 100.0 * (sanitized["sim_wall_seconds"]
                                     / base["sim_wall_seconds"] - 1.0) \
        if base["sim_wall_seconds"] > 0 else 0.0

    server_off = min(_time_server(False) for _ in range(args.passes))
    server_on = min(_time_server(True) for _ in range(args.passes))
    timeline_overhead_pct = (100.0 * (server_on / server_off - 1.0)
                             if server_off > 0 else 0.0)

    record = {
        "benchmark": "eventloop schedule/fire/cancel mix",
        "python": sys.version.split()[0],
        "rounds": args.rounds,
        "best": {k: (round(v, 4) if isinstance(v, float) else v)
                 for k, v in base.items()},
        "all_passes_events_per_sec": [round(p["sim_events_per_sec"])
                                      for p in base_passes],
        "tracing_disabled_overhead_pct": round(overhead_pct, 2),
        "sanitizer_overhead_pct": round(sanitize_overhead_pct, 2),
        "timeline_overhead_pct": round(timeline_overhead_pct, 2),
    }
    if args.backend:
        backends = {}
        for name in args.backend:
            passes = [_time_backend(name) for _ in range(args.passes)]
            backends[name] = min(passes, key=lambda p: p["wall_seconds"])
            print(f"backend {name}: {backends[name]['events_per_sec']:,} "
                  f"events/s ({backends[name]['wall_seconds']}s wall, "
                  f"best of {args.passes})")
        record["datapath_backends"] = backends
    analysis_seconds = None
    if args.assert_analysis_time is not None:
        from repro.analysis.flow import analyze_paths
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        start = time.perf_counter()
        report = analyze_paths([src], rel_to=src.parent)
        analysis_seconds = time.perf_counter() - start
        record["flow_analysis_seconds"] = round(analysis_seconds, 3)
        record["flow_analysis_files"] = report.files_scanned
        print(f"flow analysis: {report.files_scanned} files in "
              f"{analysis_seconds:.2f}s")
    record["best"]["sim_events_per_sec"] = round(
        base["sim_events_per_sec"])
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{record['best']['sim_events_per_sec']:,} events/s "
          f"(best of {args.passes}); disabled-tracing overhead "
          f"{overhead_pct:+.1f}%; sanitizer overhead "
          f"{sanitize_overhead_pct:+.1f}%; timeline overhead "
          f"{timeline_overhead_pct:+.1f}% -> {args.out}")

    if args.assert_overhead is not None \
            and overhead_pct > args.assert_overhead:
        print(f"FAIL: disabled-tracing overhead {overhead_pct:.1f}% "
              f"exceeds the {args.assert_overhead:.1f}% budget",
              file=sys.stderr)
        return 1
    if args.assert_sanitize_overhead is not None \
            and sanitize_overhead_pct > args.assert_sanitize_overhead:
        print(f"FAIL: sanitizer overhead {sanitize_overhead_pct:.1f}% "
              f"exceeds the {args.assert_sanitize_overhead:.1f}% budget",
              file=sys.stderr)
        return 1
    if args.assert_timeline_overhead is not None \
            and timeline_overhead_pct > args.assert_timeline_overhead:
        print(f"FAIL: timeline overhead {timeline_overhead_pct:.1f}% "
              f"exceeds the {args.assert_timeline_overhead:.1f}% budget",
              file=sys.stderr)
        return 1
    if analysis_seconds is not None \
            and analysis_seconds > args.assert_analysis_time:
        print(f"FAIL: flow analysis took {analysis_seconds:.1f}s, "
              f"budget is {args.assert_analysis_time:.0f}s",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
