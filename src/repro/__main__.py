"""Command-line entry point: run one server configuration.

Usage::

    python -m repro --app memcached --level high --governor nmap
    python -m repro --app nginx --governor ondemand --sleep c6only \
                    --cores 8 --duration-ms 1000 --trace
"""

from __future__ import annotations

import argparse
import sys

from repro.governors.registry import FREQ_GOVERNORS, IDLE_GOVERNORS
from repro.system import MANAGED_GOVERNORS, ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.profiles import LEVELS

ALL_GOVERNORS = sorted(FREQ_GOVERNORS) + list(MANAGED_GOVERNORS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Run one simulated server experiment.")
    parser.add_argument("--app", default="memcached",
                        choices=["memcached", "nginx"])
    parser.add_argument("--level", default="high", choices=list(LEVELS))
    parser.add_argument("--governor", default="nmap", choices=ALL_GOVERNORS)
    parser.add_argument("--sleep", default="menu",
                        choices=sorted(IDLE_GOVERNORS) + ["nmap-sleep"])
    parser.add_argument("--cores", type=int, default=2)
    parser.add_argument("--duration-ms", type=int, default=300)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", action="store_true",
                        help="record P-state/C-state/NAPI traces")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ServerConfig(app=args.app, load_level=args.level,
                          freq_governor=args.governor,
                          idle_governor=args.sleep, n_cores=args.cores,
                          seed=args.seed, trace=args.trace)
    system = ServerSystem(config)
    result = system.run(args.duration_ms * MS)
    slo = result.slo_result()
    print(f"{args.app} @ {args.level} load, {args.governor}+{args.sleep}, "
          f"{args.cores} cores, {args.duration_ms} ms")
    print(f"  requests : {result.sent} sent / {result.completed} completed "
          f"/ {result.dropped} dropped")
    print(f"  latency  : {result.latency_stats().describe()}")
    print(f"  SLO      : p99 = {slo.p99_ns / 1e6:.3f} ms vs "
          f"{slo.slo_ns / 1e6:.0f} ms -> "
          f"{'OK' if slo.satisfied else 'VIOLATED'} "
          f"({100 * slo.violation_fraction:.2f}% of requests over)")
    print(f"  energy   : {result.energy.describe()}")
    pkts = result.datapath_pkts
    wakes = result.telemetry.sum_of("ksoftirqd_wakeups_total")
    print(f"  NAPI     : {pkts['interrupt']} interrupt-mode / "
          f"{pkts['polling']} polling-mode packets, "
          f"{wakes} ksoftirqd wakes")
    return 0 if slo.satisfied else 1


if __name__ == "__main__":
    sys.exit(main())
