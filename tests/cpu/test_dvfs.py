"""DVFS controller and the re-transition latency model."""

import pytest

from repro.cpu.dvfs import (DvfsController, FULL_DOWN, FULL_UP,
                            SMALL_DOWN_HIGH, SMALL_DOWN_LOW, SMALL_UP_HIGH,
                            SMALL_UP_LOW, TransitionLatencyModel)
from repro.cpu.profiles import XEON_GOLD_6134
from repro.units import MS, US


@pytest.fixture
def model():
    return XEON_GOLD_6134.transition_model()


@pytest.fixture
def ctrl(sim, core, model):
    return DvfsController(sim, core, model)


def test_settled_transition_uses_base_latency(sim, core, ctrl):
    latency = ctrl.request(5)
    assert latency == ctrl.model.base_latency_ns
    assert core.pstate_index == 0  # not yet applied
    sim.run_until(latency + 1)
    assert core.pstate_index == 5


def test_duplicate_request_is_noop(sim, core, ctrl):
    ctrl.request(5)
    assert ctrl.request(5) is None
    assert ctrl.transitions == 1


def test_request_during_settle_costs_retransition(sim, core, ctrl):
    ctrl.request(5)               # base latency, settling
    latency = ctrl.request(0)     # lands inside the settle window
    assert latency > 100 * US     # Xeon: ~526 µs
    assert ctrl.retransitions == 1
    sim.run_until(2 * MS)
    assert core.pstate_index == 0  # last writer wins


def test_superseded_request_never_applies(sim, core, ctrl):
    ctrl.request(5)
    ctrl.request(9)
    sim.run_until(5 * MS)
    assert core.pstate_index == 9


def test_settled_after_wait_is_base_again(sim, core, ctrl):
    ctrl.request(5)
    sim.run_until(5 * MS)  # fully settled
    latency = ctrl.request(0)
    assert latency == ctrl.model.base_latency_ns


def test_in_flight_flag(sim, core, ctrl):
    """A requested transition takes effect only after its latency."""
    ctrl.request(3)
    assert core.pstate_index == 0
    sim.run_until(1 * MS)
    assert core.pstate_index == 3


def test_model_requires_all_categories():
    with pytest.raises(ValueError):
        TransitionLatencyModel(n_states=16, retransition_ns={})


def test_model_interpolates_between_small_and_full():
    table = {
        SMALL_DOWN_HIGH: (100.0, 1.0), SMALL_UP_HIGH: (200.0, 1.0),
        FULL_DOWN: (1000.0, 1.0), FULL_UP: (2000.0, 1.0),
        SMALL_DOWN_LOW: (100.0, 1.0), SMALL_UP_LOW: (200.0, 1.0),
    }
    model = TransitionLatencyModel(n_states=16, retransition_ns=table)
    small_up = model.mean_latency_ns(1, 0, retransition=True)
    full_up = model.mean_latency_ns(15, 0, retransition=True)
    mid_up = model.mean_latency_ns(8, 0, retransition=True)
    assert small_up == pytest.approx(200.0)
    assert full_up == pytest.approx(2000.0)
    assert small_up < mid_up < full_up


def test_model_direction_matters():
    table = {
        SMALL_DOWN_HIGH: (100.0, 1.0), SMALL_UP_HIGH: (900.0, 1.0),
        FULL_DOWN: (100.0, 1.0), FULL_UP: (900.0, 1.0),
        SMALL_DOWN_LOW: (100.0, 1.0), SMALL_UP_LOW: (900.0, 1.0),
    }
    model = TransitionLatencyModel(n_states=16, retransition_ns=table)
    assert model.mean_latency_ns(0, 15, True) == pytest.approx(100.0)
    assert model.mean_latency_ns(15, 0, True) == pytest.approx(900.0)


def test_non_retransition_mean_is_base(model):
    assert model.mean_latency_ns(0, 15, retransition=False) \
        == model.base_latency_ns


def test_sample_latency_floor(model, rng):
    stream = rng.stream("dvfs")
    for _ in range(100):
        assert model.sample_latency_ns(0, 1, True, stream) >= 1 * US


def test_mismatched_table_size_rejected(sim, core):
    small = TransitionLatencyModel(
        n_states=4,
        retransition_ns={c: (100.0, 1.0) for c in (
            SMALL_DOWN_HIGH, SMALL_UP_HIGH, FULL_DOWN, FULL_UP,
            SMALL_DOWN_LOW, SMALL_UP_LOW)})
    with pytest.raises(ValueError):
        DvfsController(sim, core, small)
