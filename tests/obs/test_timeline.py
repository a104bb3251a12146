"""Standalone windowed timelines: determinism, deltas, monitors, dumps.

The timeline layer's contract (module docstring of
``repro.obs.timeline``) in executable form:

* timeline=None leaves runs bit-identical to pre-timeline behaviour;
* timeline=on does not perturb the run — only observes it;
* per-window deltas tile the run's end-of-run aggregates exactly
  (including the float energy sum, which must use the read-only
  projection, never the accruing path);
* monitors trip deterministically and abort=True truncates the run;
* the flight recorder captures the last N windows at the trigger.
"""

import json

import pytest

from repro.obs.monitors import MonitorSpec, oscillation, slo_burn
from repro.obs.timeline import (NODE_SERIES, TimelineConfig,
                                timeline_csv, write_flight_dumps)
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests.goldens import assert_same

DURATION = 30 * MS
INTERVAL = 2 * MS


def _config(**overrides):
    base = dict(app="memcached", load_level="medium",
                freq_governor="nmap", n_cores=2, seed=11)
    base.update(overrides)
    return ServerConfig(**base)


def _run(**overrides):
    return ServerSystem(_config(**overrides)).run(DURATION)


def test_timeline_off_is_bit_identical():
    """A timeline-on run must not perturb the simulation at all."""
    off = _run()
    on = _run(timeline=TimelineConfig(interval_ns=INTERVAL))
    assert off.timeline is None
    assert on.timeline is not None
    # Only the sampler's own output differs: its CSV and the instruments
    # it registers.
    assert_same(off, on, drop=("timeline_sha256", "telemetry_sha256"))


def test_sample_grid_and_coverage():
    result = _run(timeline=TimelineConfig(interval_ns=INTERVAL))
    tl = result.timeline.node()
    assert result.timeline.interval_ns == INTERVAL
    assert len(tl) == DURATION // INTERVAL
    assert all(t % INTERVAL == 0 for t in tl.t_ns)
    assert tl.t_ns[-1] == DURATION
    # Windows tile the run: dt sums to the duration, no gaps.
    assert sum(tl.dt_ns) == DURATION
    assert tl.series_names == NODE_SERIES


def test_deltas_tile_end_of_run_aggregates():
    """Summed per-window deltas equal the final counters exactly —
    float energy included (the projection read, not a re-accrual)."""
    result = _run(timeline=TimelineConfig(interval_ns=INTERVAL))
    tl = result.timeline.node()
    assert int(tl.series("sent").sum()) == result.sent
    assert int(tl.series("completed").sum()) == result.completed
    assert tl.series("energy_j").sum() == result.energy.package_j
    assert int(tl.series("pkts_interrupt").sum()) == \
        result.datapath_pkts["interrupt"]
    assert int(tl.series("pkts_polling").sum()) == \
        result.datapath_pkts["polling"]
    # p99 of a busy window is a real latency figure, not a placeholder.
    busy = [i for i in range(len(tl))
            if tl.value("completed", i) > 0]
    assert busy
    assert all(tl.value("p99_ns", i) > 0 for i in busy)
    assert all(0.0 <= tl.value("busy_frac", i) <= 1.0
               for i in range(len(tl)))


def test_timeline_registers_telemetry():
    result = _run(timeline=TimelineConfig(interval_ns=INTERVAL))
    assert result.telemetry.total("timeline_samples") == \
        len(result.timeline)
    off = _run()
    with pytest.raises(KeyError):
        off.telemetry.total("timeline_samples")


def test_monitor_trips_are_recorded():
    # max_flips=0 trips unconditionally on the first window: a
    # deterministic trip without depending on governor dynamics.
    tl_config = TimelineConfig(
        interval_ns=INTERVAL,
        monitors=(oscillation(max_flips=0, consecutive_windows=1),))
    result = _run(timeline=tl_config)
    events = result.timeline.events
    assert len(events) == 1  # trip latches: one event, not one/window
    assert events[0].monitor == "oscillation"
    assert events[0].node == 0
    assert events[0].t_ns == INTERVAL
    assert not events[0].abort
    assert result.timeline.aborted_at_ns is None
    assert result.telemetry.total("monitor_trips_total") == 1


def test_abort_truncates_run():
    tl_config = TimelineConfig(
        interval_ns=INTERVAL,
        monitors=(oscillation(max_flips=0, consecutive_windows=2,
                              abort=True),))
    result = ServerSystem(_config(timeline=tl_config)).run(DURATION)
    assert result.timeline.aborted_at_ns == 2 * INTERVAL
    assert result.duration_ns == 2 * INTERVAL
    assert len(result.timeline.node()) == 2
    # The energy measurement window matches the truncated duration.
    assert result.timeline.node().series("energy_j").sum() == \
        result.energy.package_j


def test_slo_burn_monitor_on_quiet_run_stays_silent():
    tl_config = TimelineConfig(
        interval_ns=INTERVAL, monitors=(slo_burn(),))
    result = _run(timeline=tl_config)
    # nmap at medium load holds the SLO; the burn monitor must not cry.
    assert result.slo_result().satisfied
    assert result.timeline.events == []


def test_flight_recorder_dumps_on_trip(tmp_path):
    path = tmp_path / "flight.jsonl"
    tl_config = TimelineConfig(
        interval_ns=INTERVAL,
        monitors=(oscillation(max_flips=0, consecutive_windows=3),),
        flight_windows=2, flight_path=str(path))
    result = _run(timeline=tl_config)
    dumps = result.timeline.dumps
    assert len(dumps) == 1
    dump = dumps[0]
    assert dump.trigger == "monitor"
    assert dump.t_ns == 3 * INTERVAL
    assert len(dump.t_windows) == 2  # ring capacity
    assert dump.t_windows == [2 * INTERVAL, 3 * INTERVAL]
    # The ring's final window is the timeline row at the trigger.
    tl = result.timeline.node()
    assert dump.node_rows[-1][0] == tl.rows[len(dump.t_windows)]
    # finish() wrote the JSONL artifact; round-trip its framing.
    lines = [json.loads(line)
             for line in path.read_text().splitlines()]
    assert lines[0]["type"] == "flight-dump"
    assert lines[0]["windows"] == 2
    assert [ln["type"] for ln in lines].count("window") == 2
    assert lines[-1]["type"] == "end"


def test_flight_dump_cap_suppresses_extras():
    tl_config = TimelineConfig(
        interval_ns=INTERVAL,
        # consecutive_windows=1 re-trips after every clear; node 0 and
        # a per-node monitor double the trigger stream.
        monitors=(oscillation(max_flips=0, consecutive_windows=1),
                  slo_burn(budget=0.01, horizon_windows=1)),
        flight_windows=2, max_flight_dumps=1)
    result = _run(timeline=tl_config)
    assert len(result.timeline.dumps) == 1
    assert result.timeline.dumps_suppressed >= 0


def test_timeline_csv_round_trip():
    result = _run(timeline=TimelineConfig(interval_ns=INTERVAL))
    text = timeline_csv(result.timeline)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["t_ns", "dt_ns", "node"]
    assert tuple(header[3:]) == NODE_SERIES
    assert len(lines) == 1 + len(result.timeline)  # one node
    # repr-formatted floats survive the round trip bit-exactly.
    first = lines[1].split(",")
    assert float(first[3 + NODE_SERIES.index("energy_j")]) == \
        result.timeline.node().value("energy_j", 0)


def test_perfetto_includes_timeline_tracks():
    from repro.obs.perfetto import perfetto_trace

    result = _run(timeline=TimelineConfig(interval_ns=INTERVAL))
    doc = perfetto_trace(result, include_channels=False)
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("name") == "thread_name"}
    assert "node.p99_ns" in names and "node.power_w" in names
    counters = [e for e in doc["traceEvents"]
                if e.get("ph") == "C" and e.get("cat") == "timeline"]
    assert len(counters) == len(NODE_SERIES) * len(result.timeline)


def test_write_flight_dumps_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_flight_dumps([], str(path)) == 0
    assert path.read_text() == ""


def test_config_validation():
    with pytest.raises(ValueError, match="interval_ns"):
        TimelineConfig(interval_ns=0)
    with pytest.raises(ValueError, match="flight_windows"):
        TimelineConfig(flight_windows=-1)
    with pytest.raises(ValueError, match="max_flight_dumps"):
        TimelineConfig(max_flight_dumps=0)
    with pytest.raises(ValueError, match="kind"):
        MonitorSpec(kind="nonsense")
    with pytest.raises(ValueError, match="budget"):
        slo_burn(budget=0.0)
    with pytest.raises(ValueError, match="consecutive_windows"):
        oscillation(consecutive_windows=0)
    # Specs coerce to tuples so the config stays hashable.
    config = TimelineConfig(monitors=[slo_burn()])
    assert isinstance(config.monitors, tuple)
    hash(config)
