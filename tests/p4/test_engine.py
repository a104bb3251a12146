"""Engine behavior: steer, drop, mirror, meter, costs, determinism."""

import numpy as np
import pytest

from repro.obs.timeline import TimelineConfig
from repro.p4 import (PipelineProgram, TableEntry, TableStage, chained,
                      drop_program, flow_affine_program, hash_rss_program,
                      identity_program, meter_program)
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.client import wrr_pattern
from tests.goldens import assert_same, capture

DURATION = 60 * MS

SKEW = (20, 10, 5, 5, 2, 2, 1, 1)


def _table_counter(result, name, table, **labels):
    """A per-table pipeline counter, read from the run's telemetry."""
    return result.telemetry.sum_of(name, subsystem="p4", table=table,
                                   **labels)


def _config(**overrides):
    base = dict(app="memcached", load_level="high", n_cores=2,
                freq_governor="nmap", seed=7, n_flows=8, flow_weights=SKEW)
    base.update(overrides)
    return ServerConfig(**base)


# -- client skew -------------------------------------------------------- #

def test_wrr_pattern_is_smooth_and_exact():
    pattern = wrr_pattern((3, 1))
    assert pattern == (0, 0, 1, 0)  # interleaved, not a a a b
    assert len(wrr_pattern(SKEW)) == sum(SKEW)
    for fid, weight in enumerate(SKEW):
        assert wrr_pattern(SKEW).count(fid) == weight
    with pytest.raises(ValueError):
        wrr_pattern(())
    with pytest.raises(ValueError):
        wrr_pattern((0, 0))
    with pytest.raises(ValueError):
        wrr_pattern((1.5, 1))


def test_flow_weights_require_matching_n_flows():
    with pytest.raises(ValueError, match="n_flows"):
        ServerSystem(ServerConfig(n_flows=4, flow_weights=(1, 2)))
    with pytest.raises(ValueError, match="n_flows"):
        ServerSystem(ServerConfig(n_flows=None, flow_weights=(1, 2)))


# -- steering ----------------------------------------------------------- #

def test_steer_overrides_rss_placement():
    system = ServerSystem(_config(
        pipeline=flow_affine_program(2, SKEW)))
    result = system.run(DURATION)
    engine = system.pipeline
    assert engine.steered == engine.parsed == result.sent
    assert _table_counter(result, "p4_table_hits_total",
                          "flow_affinity") == result.sent
    assert _table_counter(result, "p4_table_misses_total",
                          "flow_affinity") == 0


def test_steer_queue_validated_against_nic():
    prog = flow_affine_program(4, SKEW)  # queues 0..3, NIC has 2
    with pytest.raises(ValueError, match="queue"):
        ServerSystem(_config(pipeline=prog))


def test_affine_steering_beats_hash_rss_under_skew():
    affine = ServerSystem(_config(
        pipeline=flow_affine_program(2, SKEW))).run(DURATION)
    hashed = ServerSystem(_config(
        pipeline=hash_rss_program(2, 8))).run(DURATION)
    assert affine.p99_ns < hashed.p99_ns


# -- drop / mirror ------------------------------------------------------ #

def test_acl_drop_counts_and_traces():
    system = ServerSystem(_config(pipeline=drop_program("session", [0]),
                                  trace=True))
    result = system.run(DURATION)
    engine = system.pipeline
    assert result.dropped == engine.dropped > 0
    assert result.completed == result.sent - result.dropped
    # Drops land on the fault track of the trace.
    t, v = result.trace.to_arrays("fault.p4.drop")
    assert len(t) == engine.dropped and all(v == 1)


def test_miss_action_drop_inverts_the_acl():
    allow = PipelineProgram(stages=(TableStage(
        name="allowlist",
        entries=tuple(TableEntry(field="session", value=fid,
                                 action="mirror") for fid in (0, 1)),
        miss_action="drop"),))
    system = ServerSystem(_config(pipeline=allow, trace=True))
    result = system.run(DURATION)
    engine = system.pipeline
    misses = _table_counter(result, "p4_table_misses_total", "allowlist")
    hits = _table_counter(result, "p4_table_hits_total", "allowlist")
    mirrors = _table_counter(result, "p4_table_actions_total",
                             "allowlist", action="mirror")
    assert engine.dropped == misses > 0
    assert mirrors == hits == engine.mirrored > 0
    t, _ = result.trace.to_arrays("fault.p4.mirror")
    assert len(t) == engine.mirrored


# -- meter -------------------------------------------------------------- #

def test_meter_drop_sheds_and_mark_forwards():
    dropping = ServerSystem(_config(pipeline=meter_program(
        rate_pps=20_000.0, burst_pkts=32)))
    shed = dropping.run(DURATION)
    assert shed.dropped > 0
    assert _table_counter(shed, "p4_table_actions_total", "meter",
                          action="meter-exceeded") == shed.dropped

    marking = ServerSystem(_config(pipeline=meter_program(
        rate_pps=20_000.0, burst_pkts=32, exceed_action="mark")))
    marked = marking.run(DURATION)
    assert marked.dropped == 0
    assert marking.pipeline.marked == _table_counter(
        marked, "p4_table_actions_total", "meter",
        action="meter-exceeded") > 0
    assert marked.completed == marked.sent


def test_meter_conforms_to_rate_plus_burst():
    rate = 50_000.0
    system = ServerSystem(_config(pipeline=meter_program(
        rate_pps=rate, burst_pkts=16)))
    system.run(DURATION)
    engine = system.pipeline
    conforming = engine.forwarded
    budget = rate * (DURATION / 1e9) + 16
    assert conforming <= budget * 1.05
    assert conforming >= budget * 0.5  # the bucket does refill


# -- cost models -------------------------------------------------------- #

def test_nic_cost_model_adds_latency_not_core_work():
    free = ServerSystem(_config(pipeline=identity_program())).run(DURATION)
    taxed = ServerSystem(_config(pipeline=hash_rss_program(
        2, 8, cycles_per_packet=2_000.0))).run(DURATION)
    # Same placement as hash RSS, but every packet pays 2µs of NIC
    # pipeline delay at 1 GHz: latency must shift right.
    assert float(np.median(taxed.latencies_ns)) > \
        float(np.median(free.latencies_ns))


def test_core_cost_model_charges_the_retrieval_core():
    system = ServerSystem(_config(pipeline=hash_rss_program(
        2, 8, cycles_per_packet=2_000.0, cost_model="core")))
    result = system.run(DURATION)
    label_counts = {}
    for core in system.processor.cores:
        label_counts[core.core_id] = core.works_completed
    assert system.pipeline.cycles_total > 0
    assert result.completed > 0
    assert sum(label_counts.values()) > 0


# -- determinism -------------------------------------------------------- #

@pytest.mark.slow
@pytest.mark.parametrize("datapath,governor",
                         [("napi", "nmap"), ("poll", "performance"),
                          ("metronome", "ondemand")])
def test_programmed_runs_are_seed_deterministic(datapath, governor):
    program = chained(
        flow_affine_program(2, SKEW, cycles_per_packet=10.0),
        meter_program(rate_pps=150_000.0, burst_pkts=64))
    config = _config(pipeline=program, datapath=datapath,
                     freq_governor=governor)
    a = ServerSystem(config).run(DURATION)
    b = ServerSystem(config).run(DURATION)
    assert_same(a, b)
    other = ServerSystem(config.with_overrides(seed=8)).run(DURATION)
    assert capture(other) != capture(a)


@pytest.mark.slow
def test_programmed_run_matches_under_sanitizer(monkeypatch):
    config = _config(pipeline=flow_affine_program(2, SKEW))
    plain = ServerSystem(config).run(DURATION)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    system = ServerSystem(config)
    assert system.sim.sanitizer is not None
    sanitized = system.run(DURATION)
    assert_same(sanitized, plain)


# -- timeline ----------------------------------------------------------- #

def test_timeline_reports_p4_columns():
    config = _config(pipeline=drop_program("session", [0]),
                     timeline=TimelineConfig(interval_ns=10 * MS))
    result = ServerSystem(config).run(DURATION)
    node = result.timeline.node(0)
    assert node.series("p4_hits").sum() > 0
    assert node.series("p4_drops").sum() > 0
    # Windowed deltas must re-add to the cumulative totals.
    plain = ServerSystem(_config(
        pipeline=drop_program("session", [0]))).run(DURATION)
    assert node.series("p4_drops").sum() == plain.dropped


def test_timeline_p4_columns_zero_without_program():
    config = _config(timeline=TimelineConfig(interval_ns=10 * MS))
    result = ServerSystem(config).run(DURATION)
    node = result.timeline.node(0)
    assert node.series("p4_hits").sum() == 0
    assert node.series("p4_misses").sum() == 0
    assert node.series("p4_drops").sum() == 0
