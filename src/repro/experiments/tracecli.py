"""The ``trace`` observability subcommand.

``python -m repro.experiments trace <exp>`` re-runs one representative
configuration of an experiment with span tracing enabled, writes a
Perfetto-loadable JSON trace, and prints the per-stage latency breakdown.
``--telemetry`` also prints the run's telemetry registry and
``--prometheus PATH`` writes it in Prometheus text format, from the same
run, followed by the run's host numbers (wall time, events/sec) from
:func:`repro.sim.perf.host_registry`.

The command runs the simulation directly (never through the run cache):
a traced run carries a span log and is meant to be inspected, not reused
as an experiment artifact.
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional, Tuple

from repro.experiments.base import FULL, QUICK
from repro.experiments.registry import EXPERIMENTS
from repro.metrics.report import format_table
from repro.obs.perfetto import write_perfetto
from repro.obs.prometheus import prometheus_text
from repro.sim.perf import host_registry
from repro.system import ServerConfig, ServerSystem

#: Representative (app, governor, load_level) per experiment — the cell
#: of each experiment's grid whose request path is most informative to
#: trace. Experiments not listed fall back to the default triple.
_DEFAULT_TRIPLE = ("memcached", "nmap", "high")
_REPRESENTATIVE: Dict[str, Tuple[str, str, str]] = {
    "fig2": ("memcached", "ondemand", "high"),
    "fig3": ("memcached", "ondemand", "high"),
    "fig4": ("memcached", "ondemand", "high"),
    "tab1": ("memcached", "ondemand", "high"),
    "tab2": ("memcached", "ondemand", "low"),
    "fig7": ("memcached", "ondemand", "low"),
    "fig8": ("memcached", "nmap", "low"),
    "fig16": ("memcached", "nmap", "high"),
    "slo": ("memcached", "performance", "high"),
}


def representative_config(experiment_id: str, *,
                          scale=QUICK,
                          app: Optional[str] = None,
                          governor: Optional[str] = None,
                          load: Optional[str] = None,
                          sample_rate: float = 1.0) -> ServerConfig:
    """A traced :class:`ServerConfig` standing in for one experiment."""
    if experiment_id not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment_id!r}; "
                         f"known: {list(EXPERIMENTS)}")
    d_app, d_gov, d_load = _REPRESENTATIVE.get(experiment_id,
                                               _DEFAULT_TRIPLE)
    return ServerConfig(app=app or d_app,
                        freq_governor=governor or d_gov,
                        load_level=load or d_load,
                        n_cores=scale.n_cores,
                        seed=scale.seed,
                        trace=True,
                        trace_sample_rate=sample_rate)


def cmd_trace(argv) -> int:
    """``trace <exp>``: run traced, write Perfetto JSON, print breakdown
    (and, on request, the telemetry registry)."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments trace",
        description="Trace one experiment's representative run and export "
                    "a Perfetto (chrome://tracing) JSON file.")
    parser.add_argument("experiment", choices=list(EXPERIMENTS),
                        metavar="experiment",
                        help=f"one of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--app", help="override the traced application")
    parser.add_argument("--governor", help="override the DVFS governor")
    parser.add_argument("--load", help="override the load level")
    parser.add_argument("--sample-rate", type=float, default=1.0,
                        metavar="R", help="span sample rate in (0, 1] "
                                          "(default: 1.0)")
    parser.add_argument("--full", action="store_true",
                        help="paper-sized scale (8 cores, longer run)")
    parser.add_argument("--out", metavar="PATH",
                        help="output path (default: trace_<exp>.json)")
    parser.add_argument("--no-channels", action="store_true",
                        help="omit TraceRecorder counter tracks")
    parser.add_argument("--telemetry", action="store_true",
                        help="also print every instrument of the "
                             "telemetry registry")
    parser.add_argument("--prometheus", metavar="PATH",
                        help="also write the registry in Prometheus "
                             "text format")
    args = parser.parse_args(argv)

    scale = FULL if args.full else QUICK
    config = representative_config(args.experiment, scale=scale,
                                   app=args.app, governor=args.governor,
                                   load=args.load,
                                   sample_rate=args.sample_rate)
    result = ServerSystem(config).run(scale.duration_ns)
    spans = result.spans

    out = args.out or f"trace_{args.experiment}.json"
    n_events = write_perfetto(result, out,
                              include_channels=not args.no_channels)

    title = (f"{args.experiment}: {config.app}/{config.freq_governor}/"
             f"{config.load_level} ({scale.name}, "
             f"sample rate {config.trace_sample_rate:g})")
    headers, rows = spans.breakdown_table()
    print(format_table(headers, rows, title=title))
    err = spans.max_tiling_error_ns()
    print(f"\ntraced {len(spans.records)} of {result.completed} requests; "
          f"max span-tiling error {err} ns")
    print(f"wrote {out} ({n_events} trace events) — load in "
          f"https://ui.perfetto.dev or chrome://tracing")
    if args.telemetry:
        rows = []
        for name, labels, kind, instrument in result.telemetry.items():
            label_txt = ",".join(f"{k}={v}"
                                 for k, v in sorted(labels.items())) or "-"
            if kind == "histogram":
                value = (f"n={instrument.count} "
                         f"mean={instrument.mean:,.0f}")
            else:
                value = f"{instrument.value:g}"
            rows.append([name, kind, label_txt, value])
        print()
        print(format_table(["instrument", "kind", "labels", "value"], rows,
                           title=title + " — telemetry"))
    if args.prometheus:
        with open(args.prometheus, "w") as fh:
            fh.write(prometheus_text(result.telemetry))
            fh.write(prometheus_text(host_registry(result.perf)))
        print(f"wrote {args.prometheus}")
    return 0 if err == 0 else 1
