#!/usr/bin/env python
"""Rack-scale fleet benchmark: sharding + adaptive lookahead.

Measures how fast the fleet co-simulation advances *node-sim-seconds
per wall second* on an idle-heavy diurnal trace with a fine (1 µs,
intra-rack) LB wire latency — the regime where per-window barrier
overhead dominates and the PR's two levers apply:

* **Adaptive lookahead** — the lockstep driver coalesces provably-idle
  windows into strides (``FleetConfig.max_stride_windows``);
* **Sharding** — nodes partitioned over worker processes
  (``FleetConfig.shards``), each advancing its shard between barriers.

Both are bit-identical to the serial window-by-window loop (enforced by
``tests/cluster/test_sharded.py`` / ``test_stride.py``); this benchmark
records what that costs or buys. Three sections land in
``BENCH_fleet_scale.json``:

* ``speedup`` (gated): 8 nodes, round-robin — serial/stride-1 baseline
  vs. 4-shard/adaptive-stride candidate (``--assert-speedup``);
* ``windowed_strides``: 8 nodes, power-aware (the feedback dispatch
  path) — serial stride-1 vs. serial adaptive strides;
* ``scale`` (gated): ``--nodes`` (default 64) under 4 shards with
  adaptive strides; ``--assert-rate`` puts a floor on its
  node-sim-seconds/s in CI.

Usage::

    PYTHONPATH=src python benchmarks/fleet_scale.py [--out PATH]
        [--nodes N] [--duration-ms MS] [--quick]
        [--assert-speedup X] [--assert-rate R]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import FleetConfig, FleetSystem  # noqa: E402
from repro.system import ServerConfig  # noqa: E402
from repro.units import MS  # noqa: E402
from repro.workload.shapes import diurnal  # noqa: E402

#: Diurnal trace: 5% duty bursts at 4 krps/core over a 50 rps/core idle
#: floor — ~95% of lockstep windows carry no fleet-level information.
PERIOD_MS = 20
DUTY = 0.05
PEAK_RPS = 4000.0
TROUGH_RPS = 50.0
WINDOW_NS = 1_000


def _fleet_config(n_nodes: int, duration_ns: int, policy: str,
                  shards: int, max_stride: int) -> FleetConfig:
    node = ServerConfig(app="memcached", freq_governor="nmap", n_cores=2,
                        load_shape=diurnal(duration_ns, PERIOD_MS * MS,
                                           DUTY, PEAK_RPS, TROUGH_RPS))
    return FleetConfig(node=node, n_nodes=n_nodes, policy=policy, seed=3,
                       lb_wire_latency_ns=WINDOW_NS, shards=shards,
                       max_stride_windows=max_stride)


def _measure(config: FleetConfig, duration_ns: int, passes: int):
    """Best-of-``passes`` wall time; returns (wall_s, result)."""
    best = None
    for _ in range(passes):
        system = FleetSystem(config)
        t0 = time.perf_counter()
        result = system.run(duration_ns)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, result)
    return best


def _rate(n_nodes: int, duration_ns: int, wall_s: float) -> float:
    """Node-sim-seconds advanced per wall-clock second."""
    if wall_s <= 0:
        return float("inf")
    return n_nodes * (duration_ns / 1e9) / wall_s


def _row(config: FleetConfig, duration_ns: int, wall_s: float, result):
    return {
        "policy": config.policy,
        "n_nodes": config.n_nodes,
        "shards": config.shards,
        "max_stride_windows": config.max_stride_windows,
        "wall_s": round(wall_s, 4),
        "node_sim_s_per_s": round(_rate(config.n_nodes, duration_ns,
                                        wall_s), 3),
        "strides": result.perf.strides,
        "coalesce_ratio": round(result.perf.coalesce_ratio, 2),
        "completed_requests": result.completed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=64,
                        help="fleet size of the scale section")
    parser.add_argument("--duration-ms", type=int, default=400)
    parser.add_argument("--passes", type=int, default=2,
                        help="measured passes; the best is recorded")
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 100 ms runs, one pass")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail if the 8-node sharded+stride candidate "
                             "is not X times the serial stride-1 baseline")
    parser.add_argument("--assert-rate", type=float, default=None,
                        metavar="R",
                        help="fail if the scale section advances fewer "
                             "than R node-sim-seconds per second")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_fleet_scale.json")
    args = parser.parse_args(argv)
    if args.quick:
        args.duration_ms = min(args.duration_ms, 100)
        args.passes = 1
    duration_ns = args.duration_ms * MS
    duration_args = (duration_ns, args.passes)

    # Gated speedup: serial stride-1 loop vs. 4 shards + adaptive strides.
    base_wall, base_result = _measure(
        _fleet_config(8, duration_ns, "round-robin", 1, 1), *duration_args)
    cand_wall, cand_result = _measure(
        _fleet_config(8, duration_ns, "round-robin", 4, 64), *duration_args)
    if cand_result.energy.package_j != base_result.energy.package_j:
        print("FAIL: sharded candidate diverged from serial baseline",
              file=sys.stderr)
        return 1
    speedup = base_wall / cand_wall if cand_wall > 0 else float("inf")

    # Windowed (feedback) dispatch path: strides alone, serial.
    win_base_wall, _ = _measure(
        _fleet_config(8, duration_ns, "power-aware", 1, 1), *duration_args)
    win_wall, win_result = _measure(
        _fleet_config(8, duration_ns, "power-aware", 1, 64), *duration_args)

    # Scale: the full fleet under shards + strides.
    scale_config = _fleet_config(args.nodes, duration_ns, "round-robin",
                                 4, 64)
    scale_wall, scale_result = _measure(scale_config, *duration_args)
    scale_rate = _rate(args.nodes, duration_ns, scale_wall)

    record = {
        "benchmark": "sharded fleet co-simulation at rack scale",
        "python": sys.version.split()[0],
        "duration_ms": args.duration_ms,
        "lb_window_us": WINDOW_NS / 1_000,
        "workload": (f"diurnal {PEAK_RPS:.0f}/{TROUGH_RPS:.0f} rps/core, "
                     f"{DUTY:.0%} duty, {PERIOD_MS} ms period"),
        "speedup": {
            "baseline": _row(dataclasses.replace(base_result.config),
                             duration_ns, base_wall, base_result),
            "candidate": _row(cand_result.config, duration_ns, cand_wall,
                              cand_result),
            "speedup_x": round(speedup, 2),
        },
        "windowed_strides": {
            "stride1_wall_s": round(win_base_wall, 4),
            "strided": _row(win_result.config, duration_ns, win_wall,
                            win_result),
            "speedup_x": round(win_base_wall / win_wall, 2)
            if win_wall > 0 else None,
        },
        "scale": _row(scale_config, duration_ns, scale_wall, scale_result),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"8-node speedup {speedup:.2f}x (serial stride-1 {base_wall:.2f}s"
          f" -> 4 shards + strides {cand_wall:.2f}s); windowed strides "
          f"{record['windowed_strides']['speedup_x']}x; "
          f"{args.nodes} nodes at {scale_rate:.2f} node-sim-s/s "
          f"-> {args.out}")

    failed = False
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below the "
              f"{args.assert_speedup:.2f}x floor", file=sys.stderr)
        failed = True
    if args.assert_rate is not None and scale_rate < args.assert_rate:
        print(f"FAIL: {args.nodes}-node rate {scale_rate:.2f} "
              f"node-sim-s/s below the {args.assert_rate:.2f} floor",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
