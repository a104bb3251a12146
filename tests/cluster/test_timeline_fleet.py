"""Fleet timelines: execution-mode invariance and the flight recorder.

The fleet timeline contract: sampled series are part of the *model*,
not the execution. Shard counts, adaptive strides, and the in-process
vs multiprocess backends must all produce byte-identical timelines —
and arming the timeline must not change the simulation results it
observes.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import FleetConfig, FleetSystem
from repro.cluster.health import HealthPolicy
from repro.faults.scenarios import make_plan
from repro.obs.timeline import FLEET_SERIES, TimelineConfig, slo_burn
from repro.system import ServerConfig
from repro.units import MS
from repro.workload.retry import RetryPolicy
from tests.goldens import assert_same

DURATION = 20 * MS
INTERVAL = 2 * MS


def _everything_config(timeline=True, **overrides):
    """The shard-invariance fleet with every subsystem armed at once,
    plus windowed sampling (mirrors tests/cluster/test_sharded.py)."""
    node = ServerConfig(app="memcached", load_level="medium",
                        freq_governor="nmap", n_cores=2,
                        retry=RetryPolicy())
    tl = (TimelineConfig(interval_ns=INTERVAL, flight_windows=3,
                         monitors=(slo_burn(),))
          if timeline else None)
    base = dict(
        node=node, n_nodes=6, policy="power-aware", seed=21,
        health=HealthPolicy(),
        fleet_budget_w=80.0, budget_period_ns=5 * MS,
        node_fault_plans={2: make_plan("node-kill", DURATION)},
        node_overrides={0: {"freq_governor": "performance"},
                        4: {"freq_governor": "ondemand"}},
        timeline=tl)
    base.update(overrides)
    return FleetConfig(**base)


def _assert_timelines_identical(a, b):
    assert a is not None and b is not None
    assert a.interval_ns == b.interval_ns
    assert len(a.nodes) == len(b.nodes)
    for x, y in zip(a.nodes, b.nodes):
        assert x == y  # Timeline.__eq__: names, grid, and rows, bitwise
    assert a.fleet == b.fleet
    assert [e.as_dict() for e in a.events] == \
        [e.as_dict() for e in b.events]
    assert a.aborted_at_ns == b.aborted_at_ns


def test_timeline_off_keeps_fleet_bit_identical():
    """timeline=None must reproduce the pre-timeline run exactly."""
    off = FleetSystem(_everything_config(timeline=False)).run(DURATION)
    on = FleetSystem(_everything_config()).run(DURATION)
    assert off.timeline is None and on.timeline is not None
    # Only the sampler's own output differs: its CSV and the fleet
    # instruments it registers.
    assert_same(off, on, drop=("timeline_sha256", "telemetry_sha256"))


def test_sharded_timelines_are_bit_identical():
    """The acceptance bar: every shard count, same timeline bytes."""
    config = _everything_config()
    serial = FleetSystem(config).run(DURATION)
    assert len(serial.timeline) == DURATION // INTERVAL
    for shards in (2, 3, 6):
        sharded = FleetSystem(
            dataclasses.replace(config, shards=shards)).run(DURATION)
        _assert_timelines_identical(serial.timeline, sharded.timeline)
        assert_same(serial, sharded)
        # Execution-detail telemetry rides along without breaking parity.
        assert sharded.perf.shards == shards
        assert len(sharded.perf.shard_span_wall_s) == shards
        assert sharded.perf.shard_imbalance >= 1.0


def test_adaptive_stride_timelines_are_bit_identical():
    """Strides are capped at sample barriers: lookahead cannot skip or
    shift a sample. Node (model) series are bitwise identical; of the
    fleet series only ``strides`` — which *counts the driver's
    strides* and is an execution detail like ``perf.wall_s`` — may
    differ."""
    window = _everything_config(max_stride_windows=1)
    strided = _everything_config(max_stride_windows=64)
    a = FleetSystem(window).run(DURATION)
    b = FleetSystem(strided).run(DURATION)
    for x, y in zip(a.timeline.nodes, b.timeline.nodes):
        assert x == y
    assert [e.as_dict() for e in a.timeline.events] == \
        [e.as_dict() for e in b.timeline.events]
    assert a.timeline.fleet.t_ns == b.timeline.fleet.t_ns
    assert np.array_equal(a.timeline.fleet.series("dispatched"),
                          b.timeline.fleet.series("dispatched"))
    assert np.array_equal(a.timeline.fleet.series("windows"),
                          b.timeline.fleet.series("windows"))
    # Coalescing actually ran: fewer strides cover the same windows.
    assert b.timeline.fleet.series("strides").sum() < \
        a.timeline.fleet.series("strides").sum()


def test_fleet_series_tile_fleet_totals():
    result = FleetSystem(_everything_config()).run(DURATION)
    fleet = result.timeline.fleet
    assert fleet is not None
    assert fleet.series_names == FLEET_SERIES
    assert int(fleet.series("dispatched").sum()) == \
        sum(result.dispatched)
    assert int(fleet.series("windows").sum()) == result.lockstep_windows
    for nid, tl in enumerate(result.timeline.nodes):
        node_result = result.node_results[nid]
        assert tl.series("energy_j").sum() == \
            node_result.energy.package_j


def test_node_crash_trips_flight_recorder():
    """The seeded node-kill run must leave a post-mortem whose final
    ring window matches the timeline rows at the crash window."""
    result = FleetSystem(_everything_config()).run(DURATION)
    crashes = [d for d in result.timeline.dumps
               if d.trigger == "node-crash"]
    assert len(crashes) == 1
    dump = crashes[0]
    assert dump.node == 2
    assert "node 2" in dump.reason
    assert "node-crash@node2" in dump.faults_active
    # Ring contents are the timeline's own rows for those windows.
    sample_idx = dump.t_windows[-1] // INTERVAL - 1
    for nid, tl in enumerate(result.timeline.nodes):
        assert dump.node_rows[-1][nid] == tl.rows[sample_idx]
    assert dump.fleet_rows[-1] == result.timeline.fleet.rows[sample_idx]
    # The node-kill window spans 30-60% of the run (6-12 ms). The
    # (6,8] window still sees responses that were in flight at the
    # crash instant; by (8,10] the dead node records zero completions
    # while the fleet keeps dispatching elsewhere.
    dead = result.timeline.nodes[2].series("completed")
    assert dead[(10 * MS) // INTERVAL - 1] == 0.0
    assert result.telemetry.total("flight_dumps_total") >= 1


def test_sharded_crash_dump_matches_serial(tmp_path):
    serial = FleetSystem(_everything_config()).run(DURATION)
    path = tmp_path / "flight.jsonl"
    config = _everything_config(
        timeline=False,
        shards=3).with_overrides(timeline=TimelineConfig(
            interval_ns=INTERVAL, flight_windows=3,
            monitors=(slo_burn(),), flight_path=str(path)))
    sharded = FleetSystem(config).run(DURATION)
    a = [d for d in serial.timeline.dumps if d.trigger == "node-crash"]
    b = [d for d in sharded.timeline.dumps if d.trigger == "node-crash"]
    assert len(a) == len(b) == 1
    assert a[0].t_windows == b[0].t_windows
    assert a[0].node_rows == b[0].node_rows
    assert path.exists() and path.read_text().strip()


def test_monitor_abort_truncates_fleet_run():
    from repro.obs.timeline import oscillation

    config = _everything_config(timeline=False).with_overrides(
        timeline=TimelineConfig(
            interval_ns=INTERVAL,
            monitors=(oscillation(max_flips=0, consecutive_windows=2,
                                  abort=True),)))
    result = FleetSystem(config).run(DURATION)
    assert result.timeline.aborted_at_ns == 2 * INTERVAL
    assert result.duration_ns == 2 * INTERVAL
    assert len(result.timeline) == 2
    sharded = FleetSystem(
        dataclasses.replace(config, shards=2)).run(DURATION)
    _assert_timelines_identical(result.timeline, sharded.timeline)
    assert_same(result, sharded)


def test_interval_rounds_up_to_lockstep_windows():
    config = _everything_config(timeline=False).with_overrides(
        timeline=TimelineConfig(interval_ns=7_500))  # 1.5 windows
    result = FleetSystem(config).run(DURATION)
    assert result.timeline.interval_ns == 10_000  # 2 x lb wire latency
    assert all(t % 10_000 == 0 for t in result.timeline.node(0).t_ns)
