"""Perfetto and Prometheus exporters, pinned against golden files.

The golden files live next to this test; regenerate them by running
``python tests/obs/test_exporters.py`` after an intentional format
change and eyeballing the diff.
"""

import json
from pathlib import Path

from repro.obs.perfetto import perfetto_trace, write_perfetto
from repro.obs.prometheus import prometheus_text, prometheus_timeline_text
from repro.obs.registry import TelemetryRegistry
from repro.obs.span import RequestTrace, SpanLog
from repro.obs.timeline import (FLEET_SERIES, NODE_SERIES, Timeline,
                                TimelineResult)
from repro.sim.trace import TraceRecorder

_HERE = Path(__file__).resolve().parent


def _sample_registry() -> TelemetryRegistry:
    reg = TelemetryRegistry()
    reg.counter("requests_completed", "Requests completed",
                subsystem="workload").inc(42)
    reg.counter("napi_pkts_total", "Packets per NAPI mode",
                core="0", mode="interrupt").inc(30)
    reg.counter("napi_pkts_total", core="0", mode="polling").inc(12)
    reg.gauge("sim_events_per_sec", "Fired events per wall-clock second",
              subsystem="sim").set(1_234_567.5)
    h = reg.histogram("request_latency_ns", "End-to-end latency",
                      subsystem="workload")
    for v in (1, 3, 100, 100, 5000):
        h.observe(v)
    return reg


def _sample_result():
    """A minimal RunResult stand-in with spans, channels, and config."""
    spans = SpanLog(1.0, seed=7)
    spans.records.append(RequestTrace(
        request_id=1, kind="GET", flow_id=0, core_id=0,
        via_ksoftirqd=False, bounds=(0, 5000, 12000, 30000, 31000,
                                     60000, 65000)))
    spans.records.append(RequestTrace(
        request_id=2, kind="SET", flow_id=1, core_id=1,
        via_ksoftirqd=True, bounds=(10000, 15000, 20000, 40000, 45000,
                                    70000, 75000)))
    trace = TraceRecorder()
    trace.record("core0.pstate", 0, 2)
    trace.record("core0.pstate", 50000, 0)
    trace.record("core0.ksoftirqd_wake", 20000)

    class Config:
        app = "memcached"
        freq_governor = "nmap"
        seed = 7

    class Result:
        pass

    result = Result()
    result.spans = spans
    result.trace = trace
    result.config = Config()
    result.duration_ns = 100_000
    return result


def _sample_timeline() -> TimelineResult:
    """A tiny hand-built two-node fleet timeline (2 sample windows)."""
    nodes = []
    for nid in range(2):
        tl = Timeline(NODE_SERIES)
        for i in (1, 2):
            row = [float(10 * i + nid + col)
                   for col in range(len(NODE_SERIES))]
            tl.append(i * 1_000_000, 1_000_000, row)
        nodes.append(tl)
    fleet = Timeline(FLEET_SERIES)
    for i in (1, 2):
        fleet.append(i * 1_000_000, 1_000_000,
                     [float(100 * i + col)
                      for col in range(len(FLEET_SERIES))])
    return TimelineResult(interval_ns=1_000_000, nodes=nodes,
                          fleet=fleet, events=[], dumps=[])


def _check_golden(path: Path, text: str) -> None:
    assert path.exists(), (
        f"golden file {path.name} missing; run `python {__file__}` "
        "to generate it")
    assert text == path.read_text()


def test_prometheus_matches_golden():
    _check_golden(_HERE / "golden_prometheus.txt",
                  prometheus_text(_sample_registry()))


def test_prometheus_histogram_series_are_cumulative():
    text = prometheus_text(_sample_registry())
    assert '# TYPE request_latency_ns histogram' in text
    assert 'request_latency_ns_bucket{subsystem="workload",le="+Inf"} 5' \
        in text
    assert 'request_latency_ns_count{subsystem="workload"} 5' in text


def test_prometheus_escapes_and_sanitizes():
    reg = TelemetryRegistry()
    reg.counter("weird.name", 'line\nbreak "quote" back\\slash',
                tag='a"b\\c\nd').inc()
    text = prometheus_text(reg)
    assert "weird_name" in text
    # HELP text escapes only backslash and newline — quotes stay raw
    # (the exposition format does not quote HELP, so `\"` would render
    # literally in scrapers).
    assert r'# HELP weird_name line\nbreak "quote" back\\slash' in text
    # Label values additionally escape the double quote.
    assert r'tag="a\"b\\c\nd"' in text


def test_prometheus_sanitizes_leading_digit_label():
    reg = TelemetryRegistry()
    reg.counter("total", **{"0day": "x"}).inc()
    text = prometheus_text(reg)
    assert '_0day="x"' in text


def test_prometheus_timeline_matches_golden():
    _check_golden(_HERE / "golden_prometheus_timeline.txt",
                  prometheus_timeline_text(_sample_timeline()))


def test_prometheus_timeline_shape():
    text = prometheus_timeline_text(_sample_timeline())
    # Node series carry a node label and simulated-ms timestamps.
    assert 'timeline_sent{node="0"} 10 1' in text
    assert 'timeline_sent{node="1"} 21 2' in text
    # Fleet series have no labels.
    assert "timeline_dispatched 100 1" in text
    assert "# TYPE timeline_p99_ns gauge" in text


def test_perfetto_matches_golden():
    doc = perfetto_trace(_sample_result())
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    _check_golden(_HERE / "golden_perfetto.json", text)


def test_perfetto_structure():
    doc = perfetto_trace(_sample_result())
    events = doc["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    assert len(spans) == 12  # 2 requests x 6 stages
    # ts/dur are µs views of the exact ns bounds carried in args.
    for e in spans:
        assert e["ts"] == e["args"]["start_ns"] / 1000.0
        assert e["dur"] == e["args"]["dur_ns"] / 1000.0
    counters = [e for e in events if e.get("ph") == "C"]
    instants = [e for e in events if e.get("ph") == "i"]
    assert len(counters) == 2 and len(instants) == 1
    assert doc["otherData"]["app"] == "memcached"


def test_perfetto_without_channels():
    doc = perfetto_trace(_sample_result(), include_channels=False)
    assert not [e for e in doc["traceEvents"] if e.get("ph") in "Ci"]


def test_writers_roundtrip(tmp_path):
    result = _sample_result()
    out = tmp_path / "trace.json"
    n = write_perfetto(result, str(out))
    assert n == len(json.loads(out.read_text())["traceEvents"])


if __name__ == "__main__":
    # Regenerate the golden files (review the diff before committing).
    (_HERE / "golden_prometheus.txt").write_text(
        prometheus_text(_sample_registry()))
    (_HERE / "golden_prometheus_timeline.txt").write_text(
        prometheus_timeline_text(_sample_timeline()))
    doc = perfetto_trace(_sample_result())
    (_HERE / "golden_perfetto.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("golden files regenerated")


def test_fleet_perfetto_groups_tracks_per_node(tmp_path):
    from repro.cluster import FleetConfig, run_fleet
    from repro.obs.perfetto import fleet_perfetto_trace
    from repro.system import ServerConfig
    from repro.units import MS

    node = ServerConfig(app="memcached", load_level="low",
                        freq_governor="performance", n_cores=1,
                        trace_sample_rate=1.0)
    result = run_fleet(FleetConfig(node=node, n_nodes=2, seed=4), 10 * MS)
    doc = fleet_perfetto_trace(result)
    assert doc["otherData"]["n_nodes"] == 2
    assert doc["otherData"]["policy"] == "round-robin"
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("name") == "process_name"}
    assert {"node0 requests", "node1 requests"} <= names
    # Span events live in each node's own pid group (2i+1).
    span_pids = {e["pid"] for e in doc["traceEvents"]
                 if e.get("ph") == "X"}
    assert span_pids == {1, 3}

    # write_perfetto dispatches on the result type.
    path = tmp_path / "fleet.json"
    count = write_perfetto(result, str(path))
    assert count == len(doc["traceEvents"]) > 0
    assert json.loads(path.read_text())["otherData"]["n_nodes"] == 2
