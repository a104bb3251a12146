"""Adaptive lookahead (stride coalescing) is an execution detail.

``FleetConfig.max_stride_windows=1`` runs the literal window-by-window
lockstep loop; larger values let the driver coalesce provably-idle
windows into one ``run_until`` span. Every observable — every field of
the golden capture: dispatch counts, latencies, float energy,
telemetry — must be bit-identical across stride settings, including
under faults (a fault-driven health episode mid-schedule must split
strides, not be skipped by one) and power budgeting (strides must never
cross a budget-period barrier).
"""

import pytest

from repro.cluster import FleetConfig, FleetSystem
from repro.cluster.health import HealthPolicy
from repro.faults.scenarios import make_plan
from repro.system import ServerConfig
from repro.units import MS, US
from repro.workload.retry import RetryPolicy
from tests.goldens import assert_same

DURATION = 25 * MS


def _node(**overrides):
    defaults = dict(app="memcached", load_level="medium",
                    freq_governor="nmap", n_cores=2)
    defaults.update(overrides)
    return ServerConfig(**defaults)


def _run(stride, **fleet_overrides):
    defaults = dict(node=_node(), n_nodes=3, seed=11,
                    max_stride_windows=stride)
    defaults.update(fleet_overrides)
    return FleetSystem(FleetConfig(**defaults)).run(DURATION)


@pytest.mark.parametrize("policy", ["round-robin", "least-outstanding",
                                    "power-aware"])
def test_stride_settings_are_bit_identical(policy):
    base = _run(1, policy=policy)
    for stride in (4, 64):
        assert_same(base, _run(stride, policy=policy))


def test_strides_respect_budget_barriers():
    kwargs = dict(policy="power-aware", fleet_budget_w=40.0,
                  budget_period_ns=2 * MS)
    base = _run(1, **kwargs)
    coalesced = _run(64, **kwargs)
    assert_same(base, coalesced)
    assert base.rebalances > 0  # the barrier logic was actually exercised


@pytest.mark.parametrize("scenario", ["node-kill", "irq-storm"])
def test_fault_window_splits_the_stride(scenario):
    """A health episode mid-schedule (blackout / IRQ storm on node 1)
    must produce identical marks, failovers, and redispatches whether or
    not idle windows around it are coalesced."""
    kwargs = dict(node=_node(retry=RetryPolicy()), policy="round-robin",
                  health=HealthPolicy(),
                  node_fault_plans={1: make_plan(scenario, DURATION)})
    base = _run(1, **kwargs)
    coalesced = _run(64, **kwargs)
    assert_same(base, coalesced)
    if scenario == "node-kill":
        assert base.telemetry.total("lb_marked_down_total") > 0


def test_prefed_fleet_collapses_to_one_stride():
    """Feedback-free dispatch with no budget and no health checking has
    no barrier reads at all: the whole run is one span."""
    result = _run(64, policy="round-robin")
    assert result.perf is not None
    assert result.perf.strides == 1
    assert result.perf.windows == result.lockstep_windows
    assert result.perf.coalesce_ratio == result.lockstep_windows


def test_windowed_fleet_coalesces_idle_gaps():
    """A lightly-loaded feedback-policy fleet has empty windows between
    arrival bursts; the driver must actually exploit them."""
    result = _run(64, node=_node(load_level="low", n_cores=1),
                  policy="least-outstanding")
    assert result.perf is not None
    assert result.perf.strides < result.perf.windows
    assert result.perf.max_stride > 1
    # And the coalesced run still counts base windows.
    assert result.lockstep_windows == -(-DURATION // 5_000)


def test_stride_one_counts_every_window_as_a_stride():
    result = _run(1, policy="least-outstanding")
    assert result.perf is not None
    assert result.perf.strides == result.perf.windows
    assert result.perf.max_stride == 1


def test_lockstep_window_count_is_stride_invariant():
    window_ns = 3 * US
    for stride in (1, 64):
        result = _run(stride, policy="least-outstanding",
                      lb_wire_latency_ns=window_ns)
        assert result.lockstep_windows == -(-DURATION // window_ns)
