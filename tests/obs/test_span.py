"""Span records, the tiling invariant, and deterministic sampling."""

import pickle

import numpy as np
import pytest

from repro.obs.span import STAGES, RequestTrace, SpanLog, TraceContext


def _record(bounds, request_id=1, core_id=0):
    return RequestTrace(request_id=request_id, kind="GET", flow_id=3,
                        core_id=core_id, via_ksoftirqd=False,
                        bounds=tuple(bounds))


class _FakeRequest:
    def __init__(self, created_ns, started_ns):
        self.kind = "GET"
        self.flow_id = 0
        self.core_id = 0
        self.created_ns = created_ns
        self.started_ns = started_ns


def test_spans_tile_the_request_exactly():
    bounds = (0, 5, 12, 30, 31, 60, 65)
    r = _record(bounds)
    spans = r.spans()
    assert [s[0] for s in spans] == list(STAGES)
    assert sum(dur for _, _, dur in spans) == r.total_ns == 65
    # Consecutive spans touch: no gaps, no overlap.
    for (_, s1, d1), (_, s2, _) in zip(spans, spans[1:]):
        assert s1 + d1 == s2


def test_record_requires_all_boundaries():
    with pytest.raises(ValueError):
        _record((0, 1, 2))


def test_stage_durations_named():
    r = _record((0, 5, 12, 30, 31, 60, 65))
    d = {stage: dur for stage, _, dur in r.spans()}
    assert d["wire-rx"] == 5
    assert d["tx-wire"] == 5
    assert sum(d.values()) == 65


def test_record_pickle_roundtrip():
    r = _record((0, 5, 12, 30, 31, 60, 65))
    clone = pickle.loads(pickle.dumps(r))
    assert clone.bounds == r.bounds
    assert clone.kind == "GET"


def test_sample_rate_validation():
    with pytest.raises(ValueError):
        SpanLog(0.0)
    with pytest.raises(ValueError):
        SpanLog(1.5)
    SpanLog(1.0)  # inclusive upper bound


def test_want_is_deterministic_and_rate_accurate():
    log_a = SpanLog(0.25, seed=42)
    log_b = SpanLog(0.25, seed=42)
    verdicts = [log_a.want(i) for i in range(20_000)]
    assert verdicts == [log_b.want(i) for i in range(20_000)]
    rate = sum(verdicts) / len(verdicts)
    assert rate == pytest.approx(0.25, abs=0.02)
    # A different seed samples a different subset.
    other = [SpanLog(0.25, seed=43).want(i) for i in range(20_000)]
    assert other != verdicts
    # Rate 1.0 samples everything.
    assert all(SpanLog(1.0).want(i) for i in range(1000))


def test_complete_drops_partial_contexts():
    log = SpanLog(1.0)
    ctx = TraceContext(7)  # nothing stamped: packet skipped the path
    log.complete(_FakeRequest(0, 10), ctx, 20)
    assert len(log) == 0
    ctx.nic_rx_ns, ctx.poll_ns, ctx.sock_ns, ctx.tx_ns = 2, 4, 6, 15
    log.complete(_FakeRequest(0, 10), ctx, 20)
    assert len(log) == 1
    assert log.records[0].bounds == (0, 2, 4, 6, 10, 15, 20)
    # The span id is the context's, not anything on the request.
    assert log.records[0].request_id == 7


def test_trim_drops_late_completions():
    log = SpanLog(1.0)
    for end in (10, 20, 30):
        log.records.append(_record((0, 1, 2, 3, 4, 5, end)))
    log.trim(20)
    assert [r.completed_ns for r in log.records] == [10, 20]


def test_stage_matrix_and_totals():
    log = SpanLog(1.0)
    log.records.append(_record((0, 5, 12, 30, 31, 60, 65)))
    log.records.append(_record((10, 15, 20, 40, 45, 70, 75)))
    matrix = log.stage_matrix()
    assert set(matrix) == set(STAGES)
    stacked = np.stack([matrix[s] for s in STAGES]).sum(axis=0)
    assert np.array_equal(stacked, log.totals_ns())
    assert log.max_tiling_error_ns() == 0


def test_empty_log_aggregates():
    log = SpanLog(0.5)
    assert log.totals_ns().size == 0
    assert all(v.size == 0 for v in log.stage_matrix().values())
    assert log.max_tiling_error_ns() == 0
    headers, rows = log.breakdown_table()
    assert headers[0] == "stage"
    assert len(rows) == len(STAGES)  # placeholder rows, no end-to-end


def test_breakdown_shares_sum_to_hundred():
    log = SpanLog(1.0)
    log.records.append(_record((0, 5, 12, 30, 31, 60, 65)))
    log.records.append(_record((10, 15, 20, 40, 45, 70, 75)))
    headers, rows = log.breakdown_table()
    assert rows[-1][0] == "end-to-end"
    shares = [row[-1] for row in rows[:-1]]
    assert sum(shares) == pytest.approx(100.0, abs=0.5)
