"""Decision Engine (Algorithm 2)."""

import pytest

from repro.core.decision import (DecisionEngine, MODE_CPU_UTIL,
                                 MODE_NET_INTENSIVE)
from repro.sim.simulator import Simulator


class FakeGovernor:
    def __init__(self):
        self.suspended = False
        self.resume_calls = []

    def suspend(self):
        self.suspended = True

    def resume(self, enforce=True):
        self.suspended = False
        self.resume_calls.append(enforce)


class FakeProcessor:
    def __init__(self):
        self.sim = Simulator()
        self.requests = []

    def request_pstate(self, core_id, index):
        self.requests.append((core_id, index))


@pytest.fixture
def engine():
    return DecisionEngine(FakeProcessor(), core_id=0,
                          fallback_governor=FakeGovernor(), cu_threshold=2.0)


def test_starts_in_cpu_util_mode(engine):
    assert engine.mode == MODE_CPU_UTIL


def test_notification_enters_ni_mode(engine):
    engine.on_notification()
    assert engine.mode == MODE_NET_INTENSIVE
    assert engine.fallback.suspended
    assert engine.processor.requests == [(0, 0)]
    assert engine.ni_entries == 1


def test_repeated_notifications_idempotent(engine):
    engine.on_notification()
    engine.on_notification()
    assert engine.ni_entries == 1
    assert engine.processor.requests == [(0, 0)]


def test_low_ratio_falls_back(engine):
    engine.on_notification()
    engine.on_report(poll_cnt=5, intr_cnt=10)  # ratio 0.5 < 2.0
    assert engine.mode == MODE_CPU_UTIL
    assert not engine.fallback.suspended
    assert engine.fallback.resume_calls == [True]
    assert engine.cu_entries == 1


def test_high_ratio_stays_ni(engine):
    engine.on_notification()
    engine.on_report(poll_cnt=50, intr_cnt=10)  # ratio 5 >= 2.0
    assert engine.mode == MODE_NET_INTENSIVE


def test_report_in_cpu_mode_is_ignored(engine):
    engine.on_report(poll_cnt=0, intr_cnt=0)
    assert engine.mode == MODE_CPU_UTIL
    assert engine.cu_entries == 0


def test_zero_interrupts_with_polling_stays_ni(engine):
    """Saturated polling masks interrupts entirely: stay boosted."""
    engine.on_notification()
    engine.on_report(poll_cnt=100, intr_cnt=0)
    assert engine.mode == MODE_NET_INTENSIVE


def test_dead_quiet_window_falls_back(engine):
    engine.on_notification()
    engine.on_report(poll_cnt=0, intr_cnt=0)
    assert engine.mode == MODE_CPU_UTIL


def test_last_ratio_recorded(engine):
    engine.on_notification()
    engine.on_report(poll_cnt=4, intr_cnt=2)
    assert engine.last_ratio == 2.0


def test_invalid_threshold():
    with pytest.raises(ValueError):
        DecisionEngine(FakeProcessor(), 0, FakeGovernor(), cu_threshold=0)
