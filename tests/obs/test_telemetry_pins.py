"""Byte pins of the telemetry export and the timeline of four cells.

Every counter a run reports reaches the user through two renderings:
the Prometheus text of ``RunResult.telemetry`` and the CSV of
``RunResult.timeline``. Four short cells cover the datapath backends,
the P4 pipeline, span tracing, faults and client retries; each pins
the sha256 of both renderings. The telemetry text drops the two
wall-clock gauges (``sim_wall_seconds``, ``sim_events_per_sec``),
which legitimately differ between identical runs.

The column guard at the end checks that every registry series the
timeline reads is registered by at least one of these cells, so a
misspelt name in the column table cannot hide as an all-zero column.
"""

import hashlib

import pytest

from repro.faults.scenarios import make_plan
from repro.obs.prometheus import prometheus_text
from repro.obs.timeline import (REGISTRY_COLUMNS, TimelineConfig,
                                timeline_csv)
from repro.p4.library import flow_affine_program
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.retry import RetryPolicy

DURATION = 20 * MS
WEIGHTS = (8, 4, 2, 1, 1, 1)

CELLS = {
    "napi-nginx-traced": (ServerConfig(
        app="nginx", load_level="high", freq_governor="nmap", n_cores=2,
        seed=3, trace=True, trace_sample_rate=0.05,
        timeline=TimelineConfig(interval_ns=1 * MS)), DURATION),
    "poll-p4-steered": (ServerConfig(
        app="memcached", load_level="medium", freq_governor="performance",
        n_cores=3, seed=3, datapath="poll", n_flows=len(WEIGHTS),
        flow_weights=WEIGHTS,
        pipeline=flow_affine_program(3, WEIGHTS, cycles_per_packet=200.0),
        timeline=TimelineConfig(interval_ns=2 * MS)), DURATION),
    "hybrid-nmap": (ServerConfig(
        app="memcached", load_level="medium", freq_governor="nmap",
        n_cores=2, seed=3, datapath="nmap-hybrid",
        timeline=TimelineConfig(interval_ns=2 * MS)), DURATION),
    "memcached-loss-retry": (ServerConfig(
        app="memcached", load_level="high", freq_governor="nmap",
        n_cores=2, seed=3, fault_plan=make_plan("loss-burst", DURATION),
        retry=RetryPolicy(),
        timeline=TimelineConfig(interval_ns=2 * MS)), DURATION),
}

TELEMETRY_SHA256 = {
    "napi-nginx-traced": (
        "fbfd577509a8f42fc42a407a79b50674"
        "fc3c42789c47cca35033e0aa03fa7417"),
    "poll-p4-steered": (
        "757cf071b970428018313a0ce78423ca"
        "91c11248cb400550aa79eb661a855643"),
    "hybrid-nmap": (
        "0f24abc80efd38a108fc486501e6d3bb"
        "0fc9819652553e6e4e4972bddcac96e8"),
    "memcached-loss-retry": (
        "9b36e0a1d6679628c21e99c58e751196"
        "101eca3e70cb4b54999f9c106cb0911d"),
}

TIMELINE_SHA256 = {
    "napi-nginx-traced": (
        "befe9923790c328540e6d6d811bddb81"
        "8c38defaf7195d425c4e6e847f9080a1"),
    "poll-p4-steered": (
        "9ec8e6312cc607b1f8fe9d1661a3309b"
        "8699886c03524e734a2ef45be85de744"),
    "hybrid-nmap": (
        "8dd05e2e54d043f517c634c825fbde07"
        "7d60c6528077b6edd1ecdfcb775ac402"),
    "memcached-loss-retry": (
        "8f9f09fcb3ecbec1ca21a769016ddeba"
        "1c00fb5459d7e9ab123064bef0be4c98"),
}

#: Gauges of host wall time: they differ between identical runs.
_WALL_CLOCK_PREFIXES = ("sim_wall_seconds", "sim_events_per_sec")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _telemetry_text(result) -> str:
    return "".join(line for line in prometheus_text(
        result.telemetry).splitlines(keepends=True)
        if not line.startswith(_WALL_CLOCK_PREFIXES))


@pytest.fixture(scope="module")
def results():
    return {name: ServerSystem(config).run(duration)
            for name, (config, duration) in CELLS.items()}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_telemetry_text_is_pinned(results, cell):
    assert _sha256(_telemetry_text(results[cell])) == \
        TELEMETRY_SHA256[cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_timeline_csv_is_pinned(results, cell):
    assert _sha256(timeline_csv(results[cell].timeline)) == \
        TIMELINE_SHA256[cell]


@pytest.mark.parametrize("column", sorted(REGISTRY_COLUMNS))
def test_every_timeline_column_reads_a_registered_series(results, column):
    """Each (name, label filter) the sampler sums matches at least one
    instrument of some pinned cell: a typo would read as all zeros."""
    for name, labels in REGISTRY_COLUMNS[column]:
        assert any(
            inst_name == name and labels.items() <= inst_labels.items()
            for result in results.values()
            for inst_name, inst_labels, _, _ in result.telemetry.items()
        ), (column, name, labels)
