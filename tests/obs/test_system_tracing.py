"""End-to-end tracing through ServerSystem: the acceptance invariants.

* Span tiling: per-request span sums equal end-to-end latencies exactly.
* Non-perturbation: tracing records timestamps but schedules nothing, so
  traced and untraced runs produce bit-identical results.
* Deterministic sampling: the traced subset is a pure function of
  (rate, seed, request index) — identical across runs and across
  serial/parallel execution.
"""

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.parallel import run_many
from repro.obs import STAGES
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests.goldens import assert_same

DURATION = 20 * MS


def _config(**overrides):
    base = dict(app="memcached", load_level="high",
                freq_governor="performance", n_cores=1, seed=3)
    base.update(overrides)
    return ServerConfig(**base)


def _span_identity(record):
    # The span id is the request's send sequence at its client, so it
    # is part of a run-local identity like every other field.
    return (record.request_id, record.kind, record.flow_id, record.core_id,
            record.via_ksoftirqd, record.bounds)


def test_full_sampling_tiles_every_latency():
    result = ServerSystem(_config(trace_sample_rate=1.0)).run(DURATION)
    spans = result.spans
    assert len(spans) == result.completed > 0
    assert spans.max_tiling_error_ns() == 0
    # The span totals are exactly the recorded latencies (as multisets).
    assert np.array_equal(np.sort(spans.totals_ns()),
                          np.sort(result.latencies_ns))
    matrix = spans.stage_matrix()
    stage_sum = np.stack([matrix[s] for s in STAGES]).sum(axis=0)
    assert np.array_equal(stage_sum, spans.totals_ns())


@pytest.mark.parametrize("datapath",
                         ["napi", "poll", "metronome", "nmap-hybrid"])
def test_full_sampling_tiles_on_every_datapath(datapath):
    # Every RX backend binds its stamp guard from ``sim.spans``: one
    # left unarmed would drop its requests' spans without an error.
    config = _config(freq_governor="nmap", n_cores=2, datapath=datapath,
                     trace_sample_rate=1.0)
    result = ServerSystem(config).run(DURATION)
    spans = result.spans
    assert len(spans) == result.completed > 0
    assert spans.max_tiling_error_ns() == 0
    assert np.array_equal(np.sort(spans.totals_ns()),
                          np.sort(result.latencies_ns))


def test_tracing_does_not_perturb_the_simulation():
    off = ServerSystem(_config(trace_sample_rate=0.0)).run(DURATION)
    on = ServerSystem(_config(trace_sample_rate=1.0)).run(DURATION)
    assert off.spans is None and on.spans is not None
    # Span sampling registers its own stage histograms.
    assert_same(off, on, drop=("telemetry_sha256",))


def test_partial_sampling_is_deterministic_and_proportional():
    rate = 0.2
    a = ServerSystem(_config(trace_sample_rate=rate)).run(DURATION)
    b = ServerSystem(_config(trace_sample_rate=rate)).run(DURATION)
    ids_a = [_span_identity(r) for r in a.spans.records]
    ids_b = [_span_identity(r) for r in b.spans.records]
    assert ids_a == ids_b and ids_a
    assert len(ids_a) / a.completed == pytest.approx(rate, abs=0.05)
    # Sampled spans still tile exactly.
    assert a.spans.max_tiling_error_ns() == 0
    # Sampled totals are a subset of the latency multiset.
    lat = sorted(a.latencies_ns.tolist())
    for total in a.spans.totals_ns():
        assert total in lat


def test_identical_runs_in_one_process_give_equal_span_records():
    """Span ids depend on the run alone, not on what ran before it."""
    config = _config(trace_sample_rate=0.2)
    first = ServerSystem(config).run(DURATION)
    second = ServerSystem(config).run(DURATION)
    ids = [_span_identity(r) for r in first.spans.records]
    assert ids and ids == [_span_identity(r) for r in second.spans.records]
    # The id is the client's 1-based send sequence of a sampled request.
    request_ids = [r.request_id for r in first.spans.records]
    assert min(request_ids) >= 1
    assert max(request_ids) <= first.sent
    assert len(set(request_ids)) == len(request_ids)


def test_sampling_invalid_rate_rejected():
    with pytest.raises(ValueError):
        ServerSystem(_config(trace_sample_rate=1.5))
    with pytest.raises(ValueError):
        ServerSystem(_config(trace_sample_rate=-0.1))


def test_traced_grid_serial_equals_parallel(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = [( _config(seed=seed, trace_sample_rate=0.5), 15 * MS)
            for seed in (41, 42)]
    runner.clear_cache()
    serial = run_many(jobs, workers=1)
    runner.clear_cache()  # parallel pass starts cold
    parallel = run_many(jobs, workers=2)
    for a, b in zip(serial, parallel):
        assert_same(a, b)
        ids_a = [_span_identity(r) for r in a.spans.records]
        ids_b = [_span_identity(r) for r in b.spans.records]
        assert ids_a == ids_b and ids_a
    runner.clear_cache()


def test_telemetry_registry_present_and_consistent():
    result = ServerSystem(_config(trace_sample_rate=1.0)).run(DURATION)
    reg = result.telemetry
    assert reg is not None
    assert reg.value("requests_completed_total",
                     subsystem="workload") == result.completed
    assert reg.value("requests_dropped_total",
                     subsystem="workload") == result.dropped
    assert reg.total("napi_pkts_total") == \
        sum(result.datapath_pkts.values())
    assert reg.value("traced_requests_total",
                     subsystem="tracing") == len(result.spans)
    # Stage histograms cover every traced request.
    for stage in STAGES:
        assert reg.value("request_stage_ns", subsystem="tracing",
                         stage=stage) == len(result.spans)
    # Event-kernel gauges mirror the PerfSnapshot.
    assert reg.value("sim_events_fired", subsystem="sim") == \
        result.perf.events_fired
