#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: four workloads, one command.

Run from the repository root::

    python3 simbench/run.py --workload memcached-changing --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` times the workload: it repeats the whole workload — each
repetition against an empty cache directory — a fixed number of times
(:meth:`Workload.reps` of ``--seconds``, the same on every commit), with
set-ups in fresh interpreters in between. ``wall_s`` is the median
repetition's wall time and ``setup_s`` the median set-up (see
:func:`measure_setup`), each at the reference host speed (see
:func:`timed_mode` and ``hostspeed.py``). ``--trace 1`` runs the
per-layer pass instead: an untraced and a traced run of the same inputs
(see ``ledger.py``), the model counters of every layer, and the no-op
kernel probe. Both print every metric by name with its unit, then, as
the last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Every simulation run is checked (``check.py``): repetitions, cache
reloads, the traced pass and other shard counts must reproduce the same
digest, the pinned seeds must match ``pins.json``, and the result
invariants must hold. Any failure makes the command exit with status 1.

The model has no hardware reference: it is unvalidated, and this
benchmark reports no error figure. The shape checks in EXPERIMENTS.md
remain the only reference for simulated results.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".simbench_tmp"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_energy_j", "J"),
    ("sim_completed", "count"),
)

#: Reported next to the end-to-end metrics, outside the JSON: they are
#: zero, fixed, follow the host's speed, or vary too much from seed to
#: seed to carry a bound.
END_TO_END_INFO = (
    ("raw_wall_s", "s"),
    ("host_probe_s", "s"),
    ("reps", "count"),
    ("failed_run_frac", "frac"),
    ("sim_p50_over_slo", "ratio"),
    ("sim_p99_over_slo", "ratio"),
    ("sim_loss_frac", "frac"),
)

LAYER_COUNTERS = (
    ("sim.events_fired", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.cancel_ratio", "frac"),
    ("sim.recycle_ratio", "frac"),
    ("sim.heap_peak", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.noop_ns_per_event", "ns"),
    ("nic.rx_packets", "count"),
    ("nic.tx_packets", "count"),
    ("netstack.polling_pkt_frac", "frac"),
    ("netstack.ksoftirqd_wakeups", "count"),
    ("datapath.poll_loops", "count"),
    ("datapath.empty_poll_frac", "frac"),
    ("datapath.sleep_wakes", "count"),
    ("p4.table_hit_ratio", "frac"),
    ("cpu.works_completed", "count"),
    ("cpu.pstate_changes", "count"),
    ("cpu.busy_frac", "frac"),
    ("apps.requests_served", "count"),
    ("workload.retries", "count"),
    ("workload.timed_out", "count"),
    ("workload.p50_over_slo", "ratio"),
    ("workload.p99_over_slo", "ratio"),
    ("workload.loss_frac", "frac"),
    ("core.mode_entries", "count"),
    ("governors.samples", "count"),
    ("obs.trace_records", "count"),
    ("obs.spans", "count"),
    ("obs.timeline_rows", "count"),
    ("system.finalize_s", "s"),
    ("cluster.strides", "count"),
    ("cluster.coalesce_ratio", "ratio"),
    ("cluster.barrier_wait_s", "s"),
    ("cluster.shard_imbalance", "ratio"),
    ("cluster.redispatched", "count"),
    ("faults.windows", "count"),
    ("faults.dropped", "count"),
    ("experiments.cache_store_s", "s"),
    ("experiments.cache_load_s", "s"),
    ("experiments.cache_bytes", "bytes"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.failed_run_frac", "frac"),
)


def per_layer_metrics():
    """Every per-layer metric as ``(name, unit)``: each layer's self
    time in the traced pass and its timed calls, then the counters."""
    from ledger import LAYERS
    timed = []
    for layer in LAYERS:
        timed += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    return tuple(timed) + LAYER_COUNTERS


# --------------------------------------------------------------------- #
# Thin probes for the timed runs (one call per cell or shard ack).
# --------------------------------------------------------------------- #

class FirstEvent(Exception):
    """Raised at a cell's first event to end a set-up probe there."""


class Probes:
    """Per-cell timestamps and costs from wrappers around coarse calls.

    ``ServerSystem.run`` and ``drive_lockstep`` mark a cell's first
    event (everything before is construction and shard spawn); the
    cache stores, result finalization and shard acks are timed, and
    shard exits leave their peak RSS behind. None fires per event. With
    ``stop_at_first_event`` the first-event mark raises
    :class:`FirstEvent` instead of running the cell.
    """

    def __init__(self, rss_dir: Path, stop_at_first_event: bool = False):
        self.rss_dir = rss_dir
        self.stop_at_first_event = stop_at_first_event
        self.first_event: Optional[float] = None
        self.store_s = 0.0
        self.finalize_s = 0.0
        self.barrier_wait_s = 0.0
        self._running = False
        self._patched: list = []

    def install(self, fleet: bool) -> None:
        """Wrap the coarse calls of a server (or fleet) workload's path."""
        from repro.system import ServerSystem

        def first(original):
            def wrapper(*args, **kwargs):
                if self.first_event is None:
                    self.first_event = time.perf_counter()
                    if self.stop_at_first_event:
                        raise FirstEvent
                self._running = True
                try:
                    return original(*args, **kwargs)
                finally:
                    self._running = False
            return wrapper

        def timed(original, attr):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    setattr(self, attr, getattr(self, attr)
                            + time.perf_counter() - t0)
            return wrapper

        def barrier(original):
            def recv(shard):
                if not self._running:
                    return original(shard)
                t0 = time.perf_counter()
                try:
                    return original(shard)
                finally:
                    self.barrier_wait_s += time.perf_counter() - t0
            return recv

        rss_dir = self.rss_dir

        def worker_rss(original):
            # Runs in the forked shard worker: leave its peak RSS behind.
            def worker_main(*args):
                try:
                    original(*args)
                finally:
                    peak_kb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss
                    (rss_dir / f"{os.getpid()}.rss").write_text(str(peak_kb))
            return worker_main

        self._patch(ServerSystem, "_finalize_result",
                    timed(ServerSystem._finalize_result, "finalize_s"))
        if fleet:
            import multiprocessing
            from repro.cluster import cache, sharded
            from repro.cluster import fleet as fleet_module
            self._patch(fleet_module, "drive_lockstep",
                        first(fleet_module.drive_lockstep))
            self._patch(sharded, "drive_lockstep",
                        first(sharded.drive_lockstep))
            self._patch(cache, "_disk_store",
                        timed(cache._disk_store, "store_s"))
            self._patch(sharded._Shard, "recv", barrier(sharded._Shard.recv))
            if multiprocessing.get_start_method() == "fork":
                self._patch(sharded, "_worker_main",
                            worker_rss(sharded._worker_main))
        else:
            from repro.experiments import runner
            self._patch(ServerSystem, "run", first(ServerSystem.run))
            self._patch(runner, "_disk_store",
                        timed(runner._disk_store, "store_s"))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def worker_peak_kb(self) -> int:
        """Sum of the shard workers' peak RSS since the last call."""
        total = 0
        for path in self.rss_dir.glob("*.rss"):
            total += int(path.read_text())
            path.unlink()
        return total


def fresh_cache(directory: Path) -> None:
    """Point both run caches at an empty directory, memos cleared."""
    from repro.cluster import cache
    from repro.experiments import runner
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    runner.set_cache_dir(directory)
    runner._cache.clear()
    cache.clear_fleet_memo()


def run_rep(workload, seed: int, probes: Probes, directory: Path,
            shards: Optional[int] = None, expected: Optional[str] = None
            ) -> dict:
    """One timed repetition of a workload against an empty cache, plus
    the reload-from-disk check. Returns the measurements and errors."""
    import check
    from repro.cluster import cache
    from repro.experiments import runner

    fresh_cache(directory)
    # Collect the previous repetition's garbage (the systems are cyclic)
    # now, so no repetition pays for another's.
    gc.collect()
    probes.store_s = probes.finalize_s = probes.barrier_wait_s = 0.0
    configs = workload.configs(seed, shards=shards)
    duration_ns = workload.duration_ns
    run_one = workload.run_one
    results = []
    wall_s = 0.0
    t_start = time.perf_counter()
    for config in configs:
        probes.first_event = None
        results.append(run_one(config, duration_ns))
        wall_s += time.perf_counter() - probes.first_event
    total_s = time.perf_counter() - t_start
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + probes.worker_peak_kb())

    # Reload: the memo is dropped, so every cell must come off disk.
    runner._cache.clear()
    cache.clear_fleet_memo()
    hits = runner.cache_stats().disk_hits
    t0 = time.perf_counter()
    reloaded = [run_one(config, duration_ns) for config in configs]
    load_s = time.perf_counter() - t0
    cache_bytes = sum(path.stat().st_size
                      for path in directory.rglob("*.pkl"))

    errors = check.check(workload.name, seed, results, expected)
    if runner.cache_stats().disk_hits - hits != len(configs):
        errors.append("reload did not come from the disk cache")
    elif check.digest(reloaded) != check.digest(results):
        errors.append("cache-reloaded digest differs from the fresh run")
    shutil.rmtree(directory, ignore_errors=True)
    return {"results": results, "wall_s": wall_s, "total_s": total_s,
            "peak_kb": peak_kb, "store_s": probes.store_s,
            "finalize_s": probes.finalize_s, "load_s": load_s,
            "cache_bytes": cache_bytes,
            "barrier_wait_s": probes.barrier_wait_s, "errors": errors}


# --------------------------------------------------------------------- #
# Set-up time: fresh interpreters.
# --------------------------------------------------------------------- #

def setup_probe(workload, seed: int, scratch: Path) -> dict:
    """Start every cell of the workload through its real entry point in
    this fresh interpreter and stop it at its first event: imports,
    cache lookup and system construction — for fleets also the arrival
    schedule (and, sharded, the shard spawn and handshake). Returns each cell's
    ``[start, first_event]`` perf_counter stamps."""
    probes = Probes(scratch, stop_at_first_event=True)
    probes.install(workload.fleet)
    fresh_cache(scratch / "cache")
    run_one = workload.run_one
    cells = []
    for config in workload.configs(seed):
        probes.first_event = None
        start = time.perf_counter()
        try:
            run_one(config, workload.duration_ns)
        except FirstEvent:
            pass
        cells.append([start, probes.first_event])
    return {"cells": cells}


def measure_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter: from its spawn to the
    first cell's first event, plus the set-up of every later cell (see
    :func:`setup_probe`)."""
    t_spawn = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    cells = json.loads(out.stdout.strip().splitlines()[-1])["cells"]
    (start, first), *rest = cells
    # perf_counter reads CLOCK_MONOTONIC on Linux, one clock shared by
    # every process, so the child's stamps compare with t_spawn.
    if not t_spawn < start <= first:
        raise RuntimeError(f"set-up probe stamps {cells} do not follow "
                           f"the spawn at {t_spawn}")
    return first - t_spawn + sum(b - a for a, b in rest)


# --------------------------------------------------------------------- #
# Metrics.
# --------------------------------------------------------------------- #

def _total(registry, name: str) -> float:
    try:
        return registry.total(name)
    except KeyError:
        return 0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def outcome_metrics(results) -> Dict[str, float]:
    """Simulated outcomes of one workload run (deterministic per seed)."""
    import numpy as np
    latencies = np.concatenate([r.latencies_ns for r in results])
    slo = results[0].slo_ns
    sent = sum(r.sent for r in results)
    completed = sum(r.completed for r in results)
    return {
        "sim_energy_j": sum(r.energy.package_j for r in results),
        "sim_completed": completed,
        "sim_p50_over_slo": float(np.percentile(latencies, 50)) / slo,
        "sim_p99_over_slo": float(np.percentile(latencies, 99)) / slo,
        "sim_loss_frac": _frac(sent - completed, sent),
    }


def layer_counters(results) -> Dict[str, float]:
    """The per-layer model counters, read from results and telemetry."""
    nodes = [node for r in results
             for node in getattr(r, "node_results", [r])]

    def total(name: str) -> float:
        return sum(_total(r.telemetry, name) for r in results)

    perfs = [node.perf for node in nodes]
    scheduled = sum(p.events_scheduled for p in perfs)
    pkts = sum(sum(node.datapath_pkts.values()) for node in nodes)
    hits = total("p4_table_hits_total")
    busy = total("core_busy_ns")
    outcome = outcome_metrics(results)
    fleet_perfs = [r.perf for r in results if hasattr(r, "node_results")]
    return {
        "sim.events_fired": sum(p.events_fired for p in perfs),
        "sim.events_scheduled": scheduled,
        "sim.cancel_ratio": _frac(sum(p.events_cancelled for p in perfs),
                                  scheduled),
        "sim.recycle_ratio": _frac(sum(p.events_recycled for p in perfs),
                                   scheduled),
        "sim.heap_peak": max(p.heap_peak for p in perfs),
        "nic.rx_packets": total("nic_rx_packets_total"),
        "nic.tx_packets": total("nic_tx_packets_total"),
        "netstack.polling_pkt_frac": _frac(
            sum(node.pkts_polling_mode for node in nodes), pkts),
        "netstack.ksoftirqd_wakeups": sum(node.ksoftirqd_wakeups
                                          for node in nodes),
        "datapath.poll_loops": sum(node.poll_loops for node in nodes),
        "datapath.empty_poll_frac": _frac(
            total("datapath_empty_polls_total"),
            sum(node.poll_loops for node in nodes)),
        "datapath.sleep_wakes": sum(node.sleep_wakes for node in nodes),
        "p4.table_hit_ratio": _frac(
            hits, hits + total("p4_table_misses_total")),
        "cpu.works_completed": total("works_completed_total"),
        "cpu.pstate_changes": total("pstate_changes_total"),
        "cpu.busy_frac": _frac(busy, busy + total("core_idle_ns")),
        "apps.requests_served": total("app_requests_served_total"),
        "workload.retries": total("requests_retried_total"),
        "workload.timed_out": total("requests_timed_out_total"),
        "workload.p50_over_slo": outcome["sim_p50_over_slo"],
        "workload.p99_over_slo": outcome["sim_p99_over_slo"],
        "workload.loss_frac": outcome["sim_loss_frac"],
        "core.mode_entries": total("nmap_mode_entries_total"),
        "governors.samples": total("governor_samples_total"),
        "obs.trace_records": sum(len(node.trace.samples(channel))
                                 for node in nodes
                                 for channel in node.trace.channels()),
        "obs.spans": sum(len(node.spans) for node in nodes
                         if node.spans is not None),
        "obs.timeline_rows": sum(len(r.timeline) for r in results
                                 if r.timeline is not None),
        "cluster.strides": sum(p.strides for p in fleet_perfs),
        "cluster.coalesce_ratio": (fleet_perfs[0].coalesce_ratio
                                   if fleet_perfs else 0.0),
        "cluster.redispatched": total("lb_redispatched_total"),
        "faults.windows": total("fault_windows_total"),
        "faults.dropped": (total("fault_rx_dropped_total")
                           + total("fault_rx_corrupted_total")
                           + total("fault_crash_rx_dropped_total")),
    }


def kernel_probe(rounds: int = 20_000, passes: int = 3) -> float:
    """Median host ns per fired event of the no-op schedule/fire/cancel
    mix: bursts of same-time events, a cancelled timeout and a periodic
    tick per round — the kernel alone, without any model behind it."""
    from repro.sim.simulator import Simulator
    samples = []
    for _ in range(passes):
        sim = Simulator(sanitize=False)

        def noop() -> None:
            pass

        def arm_round(i: int) -> None:
            for _ in range(8):
                sim.schedule(10, noop)
            sim.schedule(1_000, noop).cancel()
            if i + 1 < rounds:
                sim.schedule(7, arm_round, i + 1)

        sim.schedule(0, arm_round, 0)
        timer = sim.every(1_000, noop)
        t0 = time.perf_counter_ns()
        sim.run_until(rounds * 7 + 100)
        elapsed = time.perf_counter_ns() - t0
        timer.stop()
        samples.append(elapsed / sim.events_processed)
    return statistics.median(samples)


# --------------------------------------------------------------------- #
# The two modes.
# --------------------------------------------------------------------- #

def timed_mode(workload, seed: int, seconds: float, probes: Probes,
               scratch: Path):
    """Time the repetitions and set-ups, each at the reference host speed:
    scaled by ``REFERENCE_S`` over the host probe timed right after it
    (see ``hostspeed.py``). The medians of the scaled times are
    ``wall_s`` and ``setup_s``; the unscaled ones are printed beside."""
    import check
    from hostspeed import REFERENCE_S, HostProbe
    n_reps = workload.reps(seconds)
    setup: List[float] = []
    reps: List[dict] = []
    errors: List[str] = []
    probe_s: List[float] = []
    host: Optional[HostProbe] = None
    attempted = failed = 0
    expected = None
    n_cells = len(workload.configs(seed))

    def at_reference_speed(elapsed_s: float) -> float:
        # The probe's table is built after the first repetition, whose
        # peak RSS is the one reported.
        nonlocal host
        if host is None:
            host = HostProbe()
        probe_s.append(host.seconds())
        return elapsed_s * REFERENCE_S / probe_s[-1]

    for i in range(n_reps):
        # Set-up probes are spread between the repetitions, so a burst
        # of host noise cannot inflate all of them at once.
        while len(setup) < SETUP_PROBES * i // n_reps:
            setup.append(at_reference_speed(
                measure_setup(workload.name, seed)))
        attempted += n_cells
        try:
            rep = run_rep(workload, seed, probes, scratch / "cache",
                          expected=expected)
        except Exception:  # a crashed run is a failed run
            failed += n_cells
            errors.append(traceback.format_exc().strip())
            break
        if rep["errors"]:
            failed += n_cells
            errors += rep["errors"]
        if reps:
            del rep["results"]  # only the first repetition's are kept
        else:
            expected = check.digest(rep["results"])
        rep["ref_wall_s"] = at_reference_speed(rep["wall_s"])
        reps.append(rep)
    while len(setup) < SETUP_PROBES:
        setup.append(at_reference_speed(measure_setup(workload.name, seed)))
    metrics = {}
    if reps:
        metrics = {
            # Medians, not minima: a minimum follows the host's fastest
            # moments, which some runs have and others do not.
            "wall_s": statistics.median(r["ref_wall_s"] for r in reps),
            "setup_s": statistics.median(setup),
            "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
            "host_probe_s": statistics.median(probe_s),
            # The first repetition's: later ones run in a process grown by
            # earlier repetitions and the host probe's table.
            "peak_rss_mb": reps[0]["peak_kb"] / 1024.0,
            "reps": len(reps),
        }
        metrics.update(outcome_metrics(reps[0]["results"]))
    metrics["failed_run_frac"] = _frac(failed, attempted)
    return metrics, attempted, failed, errors, [r["wall_s"] for r in reps]


def traced_mode(workload, seed: int, probes: Probes, scratch: Path):
    import check
    from ledger import LAYERS, Ledger
    from workloads import PARITY_SHARDS
    metrics: Dict[str, float] = {"sim.noop_ns_per_event": kernel_probe()}
    errors: List[str] = []
    attempted = failed = 0
    # Fleets run in-process here as in the timed runs, so every node's
    # layers are visible to the ledger; shard counts are bit-identical by
    # contract, and the sharded run below checks it.
    n_cells = len(workload.configs(seed))
    try:
        attempted += n_cells
        base = run_rep(workload, seed, probes, scratch / "cache")
        errors += base["errors"]
        expected = check.digest(base["results"])

        attempted += n_cells
        ledger = Ledger()
        fresh_cache(scratch / "cache")
        # The ledger times the program's own kernel loop, without the
        # timed runs' slicing wrapper around it.
        probes.uninstall()
        ledger.install()
        try:
            traced = ledger.measure(workload.run, seed)
        finally:
            ledger.uninstall()
            probes.install(workload.fleet)
        shutil.rmtree(scratch / "cache", ignore_errors=True)
        if check.digest(traced) != expected:
            errors.append("traced digest differs from the untraced run")
        errors += ledger.errors()
        traced_ns = ledger.inclusive_ns["bench"]

        barrier_wait_s = imbalance = 0.0
        if workload.fleet:
            attempted += n_cells
            sharded = run_rep(workload, seed, probes, scratch / "cache",
                              shards=PARITY_SHARDS, expected=expected)
            errors += sharded["errors"]
            barrier_wait_s = sharded["barrier_wait_s"]
            imbalance = sharded["results"][0].perf.shard_imbalance
    except Exception:  # a crashed run is a failed run
        errors.append(traceback.format_exc().strip())
        return {}, attempted, attempted, errors

    if errors:
        failed = attempted
    counters = layer_counters(base["results"])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = ledger.self_ns[layer] / 1e9
        metrics[f"{layer}.calls"] = ledger.calls[layer]
    metrics.update(counters)
    metrics.update({
        "sim.host_ns_per_event": base["wall_s"] * 1e9
        / counters["sim.events_fired"],
        "system.finalize_s": base["finalize_s"],
        "cluster.barrier_wait_s": barrier_wait_s,
        "cluster.shard_imbalance": imbalance,
        "experiments.cache_store_s": base["store_s"],
        "experiments.cache_load_s": base["load_s"],
        "experiments.cache_bytes": base["cache_bytes"],
        "bench.traced_wall_s": traced_ns / 1e9,
        "bench.unattributed_s": ledger.self_ns["bench"] / 1e9,
        "bench.trace_overhead_frac": traced_ns / 1e9 / base["total_s"] - 1.0,
        "bench.failed_run_frac": _frac(failed, attempted),
    })
    return metrics, attempted, failed, errors


def write_pins(scratch: Path) -> None:
    """Pin the digests of the default and held-out seeds (run after a
    change that is meant to alter simulated results)."""
    import check
    from workloads import WORKLOADS
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for seed in (check.DEFAULT_SEED, check.HELD_OUT_SEED):
            fresh_cache(scratch / "cache")
            pins[name][str(seed)] = check.digest(workload.run(seed))
            print(f"{name} seed {seed}: {pins[name][str(seed)]}")
    check.PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the digests of the pinned seeds")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources at {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Both cache levels are part of the measured path.
    os.environ["REPRO_RUN_CACHE"] = "1"
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None and not args.write_pins:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    probes = Probes(scratch)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(workload, args.seed, scratch)))
            return 0
        if args.write_pins:
            write_pins(scratch)
            return 0
        probes.install(workload.fleet)
        if args.trace:
            metrics, attempted, failed, errors = traced_mode(
                workload, args.seed, probes, scratch)
            listed = per_layer_metrics()
            note = "per-layer pass"
        else:
            metrics, attempted, failed, errors, walls = timed_mode(
                workload, args.seed, args.seconds, probes, scratch)
            listed = END_TO_END + END_TO_END_INFO
            note = (f"{len(walls)} timed repetitions, wall_s each: "
                    + " ".join(f"{wall:.3f}" for wall in walls))
    finally:
        probes.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    print(f"simbench {workload.name} seed={args.seed} ({note}; "
          f"{workload.why})")
    for error in errors:
        print(f"  FAILED: {error}")
    for name, unit in listed:
        if name in metrics:
            print(f"  {name:34s} {metrics[name]!r:>24} {unit}")
    keys = [name for name, _ in (per_layer_metrics() if args.trace
                                 else END_TO_END)]
    correct = failed == 0 and all(key in metrics for key in keys)
    units = dict(listed)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in keys if key in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
