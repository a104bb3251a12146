"""Trace helpers used by the figure harnesses."""

import numpy as np
import pytest

from repro.experiments.traceutil import (boost_delays_ms,
                                         ksoftirqd_wake_times, pstate_series)
from repro.metrics.timeseries import mode_series
from repro.sim.trace import TraceRecorder
from repro.units import MS


class FakeResult:
    def __init__(self, duration_ns):
        self.trace = TraceRecorder()
        self.duration_ns = duration_ns


def test_mode_series_bins_packets():
    result = FakeResult(3 * MS)
    result.trace.record("core0.pkts_interrupt", 100, 5)
    result.trace.record("core0.pkts_polling", 1_500_000, 7)
    out = mode_series(result, 0)
    assert out["interrupt"].tolist() == [5, 0, 0]
    assert out["polling"].tolist() == [0, 7, 0]


def test_pstate_series_carries_forward():
    result = FakeResult(3 * MS)
    result.trace.record("core0.pstate", 500_000, 8)
    values = pstate_series(result, 0)
    assert values.tolist() == [8.0, 8.0, 8.0]


def test_pstate_series_initially_p0():
    result = FakeResult(2 * MS)
    assert pstate_series(result, 0).tolist() == [0.0, 0.0]


def test_ksoftirqd_wake_times():
    result = FakeResult(2 * MS)
    result.trace.record("core0.ksoftirqd_wake", 42)
    assert ksoftirqd_wake_times(result, 0).tolist() == [42]


def test_boost_delay_measured_per_period():
    result = FakeResult(300 * MS)
    # Period 100 ms; P0 reached 2 ms into period 1, never in period 2.
    result.trace.record("core0.pstate", 5 * MS, 10)
    result.trace.record("core0.pstate", 102 * MS, 0)
    result.trace.record("core0.pstate", 130 * MS, 10)
    delays = boost_delays_ms(result, 0, 100 * MS)
    assert delays == [2.0, None]
