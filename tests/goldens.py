"""One golden table of bit-exact results and the one capture they share.

``capture(result)`` reduces a run to the fields that say whether a
simulation result moved: request counts, per-mode datapath packets,
ksoftirqd wakeups, poll loops, sleep wakes, package and core energy as
``float.hex()``, p99, fired events, and sha256 digests of the
latencies, the completion times, every trace channel, the whole
Prometheus text of the result's telemetry (model outputs only: host
wall time lives on ``result.perf``) and the timeline CSV. A fleet
result captures its own counters plus one such capture per node.

``assert_same(a, b)`` compares two results (or captures) field by field.
Every relative contract of the suite (sanitized == plain, worker ==
serial, serial == sharded, stride invariance, off == absent, identity ==
no-op) goes through it; a contract whose two sides legitimately differ
in a field drops that field by name at its call site, with its reason.

``goldens.json`` pins the capture of every cell in ``CELLS``, read by
``tests/test_goldens.py``. A mismatch prints the fresh row and the
CHANGES.md line to add: re-pinning is a reviewed edit of the table.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
from typing import Dict

from repro.cluster import FleetConfig, run_fleet
from repro.cluster.health import HealthPolicy
from repro.faults.scenarios import loss_burst_plan, make_plan
from repro.obs.prometheus import prometheus_text
from repro.obs.timeline import TimelineConfig, timeline_csv
from repro.p4 import chained
from repro.p4.library import (flow_affine_program, hash_rss_program,
                              meter_program)
from repro.sim.rng import RandomStreams
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.changing import make_changing_load
from repro.workload.profiles import levels_for
from repro.workload.retry import RetryPolicy
from repro.workload.shapes import diurnal
from tests.callcount import EXTERNAL, CallCount

_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "goldens.json")

with open(_TABLE) as f:
    #: Row name -> the pinned capture of ``CELLS[name]``.
    ROWS: Dict[str, dict] = json.load(f)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_sha256(trace):
    if trace is None:
        return None
    digest = hashlib.sha256()
    for channel in sorted(trace.channels()):
        times, values = trace.to_arrays(channel)
        digest.update(channel.encode())
        digest.update(times.tobytes())
        digest.update(values.tobytes())
    return digest.hexdigest()


def capture(result) -> dict:
    """The pinned fields of a ``RunResult`` or ``FleetResult``."""
    out = {
        "sent": result.sent, "completed": result.completed,
        "dropped": result.dropped,
        "package_j_hex": result.energy.package_j.hex(),
        "cores_j_hex": result.energy.cores_j.hex(),
        "p99_ns": result.p99_ns,
        "latencies_sha256": _sha256(result.latencies_ns.tobytes()),
        "telemetry_sha256": _sha256(
            prometheus_text(result.telemetry).encode()),
        "timeline_sha256": (None if result.timeline is None else _sha256(
            timeline_csv(result.timeline).encode())),
    }
    if hasattr(result, "node_results"):
        out.update(dispatched=list(result.dispatched),
                   lockstep_windows=result.lockstep_windows,
                   rebalances=result.rebalances,
                   nodes=[capture(node) for node in result.node_results])
        return out
    out.update(
        datapath_pkts=dict(sorted(result.datapath_pkts.items())),
        ksoftirqd_wakeups=result.telemetry.sum_of("ksoftirqd_wakeups_total"),
        poll_loops=result.poll_loops, sleep_wakes=result.sleep_wakes,
        completion_times_sha256=_sha256(result.completion_times_ns.tobytes()),
        trace_sha256=_trace_sha256(result.trace),
        events_fired=result.perf.events_fired)
    return out


def _differences(a: dict, b: dict, drop, prefix="") -> list:
    out = []
    for key in sorted(a.keys() | b.keys()):
        if key in drop:
            continue
        x, y = a.get(key), b.get(key)
        if key == "nodes" and x and y and len(x) == len(y):
            for i, (n, m) in enumerate(zip(x, y)):
                out += _differences(n, m, drop, f"{prefix}nodes[{i}].")
        elif x != y:
            out.append(f"{prefix}{key}: {x!r} != {y!r}")
    return out


def assert_same(a, b, drop=()) -> None:
    """Assert two results (or captures) agree in every captured field
    except those named in ``drop`` (also dropped from each node)."""
    a, b = (x if isinstance(x, dict) else capture(x) for x in (a, b))
    diffs = _differences(a, b, set(drop))
    assert not diffs, "captures differ:\n  " + "\n  ".join(diffs)


def check(name: str, result) -> None:
    """Assert ``result`` matches row ``name``; on a mismatch, show the
    fresh row and the CHANGES.md line that re-pinning it needs."""
    fresh = capture(result)
    row = {k: v for k, v in ROWS[name].items() if k != "calls_per_request"}
    try:
        assert_same(fresh, row)
    except AssertionError as exc:
        fields = ", ".join(sorted(
            k for k in fresh.keys() | row.keys()
            if fresh.get(k) != row.get(k)))
        raise AssertionError(
            f"golden row {name!r}: {exc}\n\nfresh row:\n"
            f"{json.dumps({name: fresh}, indent=1)}\n\nTo re-pin, replace "
            f"the row in tests/goldens.json and add to CHANGES.md:\n"
            f"- Re-pinned golden row `{name}` ({fields}): <reason>"
        ) from None


def run(name: str, **overrides):
    """Run cell ``name`` of the table, with ``overrides`` laid over its
    config (``shards=2`` for a fleet)."""
    config, duration_ns = CELLS[name]
    config = dataclasses.replace(config, **overrides)
    if isinstance(config, FleetConfig):
        return run_fleet(config, duration_ns)
    return ServerSystem(config).run(duration_ns)


def calls_per_request(name: str) -> Dict[str, float]:
    """Python calls per completed request of cell ``name``: in total and
    per ``repro`` layer, counted over ``run()`` after one warm-up run so
    lazy imports and first-call caches do not show."""
    config, duration_ns = CELLS[name]
    ServerSystem(config).run(duration_ns)
    system = ServerSystem(config)
    gc.collect()
    with CallCount() as calls:
        result = system.run(duration_ns)
    per_request = {layer: round(n / result.completed, 1)
                   for layer, n in calls.layers().items()
                   if layer != EXTERNAL}
    per_request["total"] = round(calls.total / result.completed, 1)
    return per_request


def _server(**fields) -> ServerConfig:
    """A two-core memcached NMAP server at medium load, seed 1, with
    ``fields`` laid over it."""
    base = dict(app="memcached", load_level="medium", freq_governor="nmap",
                n_cores=2, seed=1)
    base.update(fields)
    return ServerConfig(**base)


#: Per-session weights of the P4 cells.
_WEIGHTS = (8, 4, 2, 1, 1, 1)
_SKEW = (20, 10, 5, 5, 2, 2, 1, 1)

#: Row name -> (config, duration): what each row of the table runs.
CELLS = {
    # Five NAPI cells at the quick scale. The first two were captured on
    # the tree before the RX backend seam; the three memcached ones
    # before the per-request hot path was flattened.
    "fig9_quick_memcached": (
        _server(load_level="high", trace=True), 300 * MS),
    "nginx_medium_ondemand": (
        _server(app="nginx", freq_governor="ondemand"), 300 * MS),
    # simbench's memcached-changing at a 100 ms switch period, so the
    # cell sees three levels.
    "memcached_changing_nmap": (
        _server(load_level="high", load_shape=make_changing_load(
            levels_for("memcached"), 300 * MS, switch_period_ns=100 * MS,
            rng=RandomStreams(1).numpy_stream("changing-load"))),
        300 * MS),
    # Idle entry, deferred deep entry, re-selection, deep wakes.
    "memcached_low_menu": (_server(load_level="low"), 300 * MS),
    # Wire loss shadows nic.receive mid-run; the client retransmits.
    "memcached_loss_retry": (
        _server(retry=RetryPolicy(), fault_plan=loss_burst_plan(300 * MS)),
        300 * MS),
    # Each bypass backend with its natural governor.
    "bypass_poll": (
        _server(freq_governor="performance", seed=7, datapath="poll"),
        60 * MS),
    "bypass_metronome": (
        _server(freq_governor="ondemand", seed=7, datapath="metronome"),
        60 * MS),
    "bypass_nmap_hybrid": (
        _server(seed=7, datapath="nmap-hybrid"), 60 * MS),
    # Four short observability cells: spans, P4 steering, nmap-hybrid,
    # loss-burst faults with retries, each with a timeline.
    "obs_napi_nginx_traced": (
        _server(app="nginx", load_level="high", seed=3, trace=True,
                trace_sample_rate=0.05,
                timeline=TimelineConfig(interval_ns=1 * MS)), 20 * MS),
    "obs_poll_p4_steered": (
        _server(freq_governor="performance", n_cores=3, seed=3,
                datapath="poll", n_flows=len(_WEIGHTS),
                flow_weights=_WEIGHTS,
                pipeline=flow_affine_program(3, _WEIGHTS,
                                             cycles_per_packet=200.0),
                timeline=TimelineConfig(interval_ns=2 * MS)), 20 * MS),
    "obs_hybrid_nmap": (
        _server(seed=3, datapath="nmap-hybrid",
                timeline=TimelineConfig(interval_ns=2 * MS)), 20 * MS),
    "obs_memcached_loss_retry": (
        _server(load_level="high", seed=3,
                fault_plan=make_plan("loss-burst", 20 * MS),
                retry=RetryPolicy(),
                timeline=TimelineConfig(interval_ns=2 * MS)), 20 * MS),
    # The remaining frequency governors and idle policies.
    "gov_ncap": (_server(freq_governor="ncap"), 40 * MS),
    "gov_parties": (_server(freq_governor="parties",
                            freq_governor_params={"period_ns": 10 * MS}),
                    40 * MS),
    "gov_nmap_simpl": (_server(freq_governor="nmap-simpl"), 40 * MS),
    "gov_intel_powersave": (
        _server(freq_governor="intel_powersave"), 40 * MS),
    "gov_conservative": (_server(freq_governor="conservative"), 40 * MS),
    "idle_c6only": (_server(idle_governor="c6only"), 40 * MS),
    "idle_disable": (_server(idle_governor="disable"), 40 * MS),
    "idle_nmap_sleep": (_server(idle_governor="nmap-sleep"), 40 * MS),
    # The fault injectors the loss-burst and node-kill cells miss.
    "fault_irq_storm": (
        _server(fault_plan=make_plan("irq-storm", 40 * MS)), 40 * MS),
    "fault_throttle": (
        _server(fault_plan=make_plan("throttle", 40 * MS)), 40 * MS),
    # A hash-RSS steer table chained with an ingress meter that drops.
    "p4_hash_rss_metered": (
        _server(load_level="high", n_flows=8, flow_weights=_SKEW,
                pipeline=chained(
                    hash_rss_program(2, 8, cycles_per_packet=10.0),
                    meter_program(rate_pps=100_000.0, burst_pkts=64))),
        40 * MS),
    # Backlog past the NAPI budget defers to ksoftirqd (two wakeups,
    # traced).
    "ksoftirqd_powersave": (
        _server(load_level="high", freq_governor="powersave", trace=True),
        50 * MS),
    # A power-aware fleet with health checking, a node kill and a power
    # budget; also checked at two shards against the same row.
    "fleet_power_kill": (FleetConfig(
        node=_server(retry=RetryPolicy()), n_nodes=4, policy="power-aware",
        seed=21, health=HealthPolicy(), fleet_budget_w=60.0,
        budget_period_ns=5 * MS,
        node_fault_plans={2: make_plan("node-kill", 20 * MS)}), 20 * MS),
    # A feedback-free round-robin fleet on fleet_scale's diurnal trace:
    # the whole schedule is dispatched up front. Also checked at two
    # shards.
    "fleet_diurnal_round_robin": (FleetConfig(
        node=_server(load_shape=diurnal(20 * MS, 10 * MS, 0.25, 16_000.0,
                                        50.0)),
        n_nodes=3, n_sessions=64, session_skew=1.3, seed=3), 20 * MS),
    # Health checking makes round-robin dispatch request by request.
    "fleet_round_robin_health": (FleetConfig(
        node=_server(retry=RetryPolicy()), n_nodes=2, seed=11,
        health=HealthPolicy(),
        node_fault_plans={1: make_plan("irq-storm", 20 * MS)}), 20 * MS),
    # The cells whose calls per request are ratcheted (Python 3.11).
    "calls_memcached_medium": (_server(), 50 * MS),
    "calls_memcached_low": (_server(load_level="low"), 50 * MS),
    "calls_nginx_medium": (_server(app="nginx"), 50 * MS),
}
