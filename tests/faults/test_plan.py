"""FaultPlan / FaultWindow validation and the scenario builders."""

import pytest

from repro.faults import KINDS, FaultPlan, FaultWindow, make_plan, merged
from repro.faults.scenarios import SCENARIOS
from repro.units import MS


def test_kinds_are_closed():
    assert set(KINDS) == {"nic-loss", "queue-overflow", "irq-storm",
                          "throttle", "dvfs-stuck", "core-offline",
                          "node-crash"}


def test_window_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultWindow("cosmic-ray", 0, MS)


def test_window_rejects_empty_or_negative_span():
    with pytest.raises(ValueError, match="window"):
        FaultWindow("throttle", 5, 5)
    with pytest.raises(ValueError, match="window"):
        FaultWindow("throttle", -1, 5)


def test_window_parameter_validation():
    with pytest.raises(ValueError, match="prob"):
        FaultWindow("nic-loss", 0, MS, prob=1.5)
    with pytest.raises(ValueError, match="prob"):
        FaultWindow("nic-loss", 0, MS, prob=0.8, corrupt_prob=0.5)
    with pytest.raises(ValueError, match="prob"):
        FaultWindow("nic-loss", 0, MS)  # loss without a probability
    with pytest.raises(ValueError, match="rate_hz"):
        FaultWindow("irq-storm", 0, MS)
    with pytest.raises(ValueError, match="rx_capacity"):
        FaultWindow("queue-overflow", 0, MS)
    with pytest.raises(ValueError, match="factor"):
        FaultWindow("dvfs-stuck", 0, MS, factor=0.5)


def test_window_duration():
    w = FaultWindow("throttle", 2 * MS, 5 * MS)
    assert w.duration_ns == 3 * MS


def test_plan_is_falsy_when_empty_truthy_otherwise():
    assert not FaultPlan()
    assert FaultPlan([FaultWindow("throttle", 0, MS)])


def test_plan_rejects_same_kind_overlap():
    with pytest.raises(ValueError, match="overlap"):
        FaultPlan([FaultWindow("throttle", 0, 2 * MS),
                   FaultWindow("throttle", MS, 3 * MS)])


def test_plan_allows_different_kind_overlap():
    plan = FaultPlan([FaultWindow("throttle", 0, 2 * MS),
                      FaultWindow("irq-storm", MS, 3 * MS, rate_hz=1000.0)])
    assert plan.kinds() == ("throttle", "irq-storm")


def test_plan_rejects_rx_shadow_group_overlap():
    # nic-loss and node-crash both shadow NIC receive; overlapping
    # windows would break the save/restore pairing.
    with pytest.raises(ValueError, match="overlap"):
        FaultPlan([FaultWindow("nic-loss", 0, 2 * MS, prob=0.1),
                   FaultWindow("node-crash", MS, 3 * MS)])


def test_plans_are_hashable_and_comparable():
    a = FaultPlan([FaultWindow("throttle", 0, MS)])
    b = FaultPlan([FaultWindow("throttle", 0, MS)])
    assert a == b
    assert hash(a) == hash(b)


def test_merged_combines_plans():
    a = FaultPlan([FaultWindow("throttle", 0, MS)])
    b = FaultPlan([FaultWindow("node-crash", 2 * MS, 3 * MS)])
    # merged() orders windows by start time; kinds() follows suit.
    assert merged(a, b).kinds() == ("throttle", "node-crash")


def test_merged_rejects_conflicts():
    a = FaultPlan([FaultWindow("throttle", 0, 2 * MS)])
    b = FaultPlan([FaultWindow("throttle", MS, 3 * MS)])
    with pytest.raises(ValueError, match="overlap"):
        merged(a, b)


def test_every_scenario_builds_a_valid_plan():
    for name in SCENARIOS:
        plan = make_plan(name, 100 * MS)
        if name == "healthy":
            assert plan is None
        else:
            assert plan
            assert all(w.end_ns <= 100 * MS for w in plan.windows)


def test_make_plan_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown fault scenario"):
        make_plan("gremlins", MS)
