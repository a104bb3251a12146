"""HealthMonitor unit tests against fake node views."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.health import HealthMonitor, HealthPolicy
from repro.obs.registry import TelemetryRegistry


class FakeView:
    def __init__(self, node_id):
        self.node_id = node_id
        self._completed = 0
        self._outstanding = 0

    def completed(self):
        return self._completed

    def outstanding(self):
        return self._outstanding


def make_monitor(n=3, **policy_kwargs):
    views = [FakeView(i) for i in range(n)]
    policy = HealthPolicy(**policy_kwargs)
    return HealthMonitor(views, policy), views


def dispatch(monitor, views, nid, n=1):
    """Dispatch ``n`` requests to node ``nid`` the way the fleet driver
    does: bump the view's counter, then notify the monitor."""
    for _ in range(n):
        views[nid]._outstanding += 1
        monitor.on_dispatch(nid)


def test_policy_validation():
    with pytest.raises(ValueError):
        HealthPolicy(down_after_windows=0)
    with pytest.raises(ValueError):
        HealthPolicy(up_after_windows=0)
    with pytest.raises(ValueError):
        HealthPolicy(min_outstanding=0)
    with pytest.raises(ValueError):
        HealthPolicy(redispatch_budget=-1)
    with pytest.raises(ValueError):
        HealthPolicy(probe_every_windows=0)


def test_stalled_node_is_marked_down_after_threshold():
    monitor, views = make_monitor(down_after_windows=3, min_outstanding=4)
    dispatch(monitor, views, 1, 10)  # stuck with work, completing nothing
    assert monitor.observe_window() == []
    assert monitor.observe_window() == []
    assert monitor.observe_window() == [1]
    assert monitor.down[1]
    assert monitor.marks_down == 1


def test_idle_node_is_not_a_dead_node():
    monitor, views = make_monitor(down_after_windows=2, min_outstanding=4)
    dispatch(monitor, views, 1, 2)  # below min_outstanding: just idle
    for _ in range(10):
        assert monitor.observe_window() == []
    assert not monitor.down[1]


def test_completions_reset_the_stall_counter():
    monitor, views = make_monitor(down_after_windows=3, min_outstanding=4)
    dispatch(monitor, views, 1, 10)
    monitor.observe_window()
    monitor.observe_window()
    views[1]._completed += 1  # a response arrived just in time
    assert monitor.observe_window() == []
    assert not monitor.down[1]


def _mark_down(monitor, views, nid):
    dispatch(monitor, views, nid, 10)
    while not monitor.down[nid]:
        monitor.observe_window()


def test_down_node_recovers_after_responsive_windows():
    monitor, views = make_monitor(down_after_windows=2,
                                  up_after_windows=2, min_outstanding=4)
    _mark_down(monitor, views, 1)
    views[1]._completed += 1
    monitor.observe_window()
    assert monitor.down[1]  # one responsive window is not enough
    monitor.observe_window()  # quiet window must NOT reset progress
    views[1]._completed += 1
    monitor.observe_window()
    assert not monitor.down[1]
    assert monitor.marks_up == 1


def test_route_passes_healthy_probes_sparsely_and_fails_over():
    monitor, views = make_monitor(down_after_windows=1, min_outstanding=4,
                                  probe_every_windows=5)
    assert monitor.route(0) == 0  # healthy: untouched
    _mark_down(monitor, views, 1)
    dispatch(monitor, views, 0, 3)
    dispatch(monitor, views, 2, 1)
    # Advance to a probe window (multiple of probe_every_windows).
    while monitor._window_index % 5 != 0:
        monitor.observe_window()
    assert monitor.route(1) == 1  # first hit in a probe window probes
    assert monitor.probes == 1
    assert monitor.route(1) == 2  # probe spent: least-outstanding healthy
    assert monitor.failovers == 1
    monitor.observe_window()  # not a probe window
    assert monitor.route(1) == 2
    assert monitor.probes == 1


def test_fallback_prefers_least_outstanding_healthy_node():
    monitor, views = make_monitor()
    _mark_down(monitor, views, 0)
    dispatch(monitor, views, 1, 7)
    dispatch(monitor, views, 2, 2)
    assert monitor.fallback(0) == 2


def test_fallback_returns_self_when_no_node_is_healthy():
    monitor, views = make_monitor(n=2, down_after_windows=1)
    _mark_down(monitor, views, 0)
    _mark_down(monitor, views, 1)
    assert monitor.fallback(0) == 0


def test_redispatch_consumes_a_finite_budget():
    monitor, views = make_monitor(redispatch_budget=15)
    dispatch(monitor, views, 1, 10)
    assert monitor.take_redispatch(1) == 10
    assert monitor.take_redispatch(1) == 5  # budget exhausted at 15
    assert monitor.take_redispatch(1) == 0
    assert monitor.redispatched == 15


def test_register_into_exposes_counters():
    monitor, views = make_monitor(down_after_windows=1, min_outstanding=4)
    _mark_down(monitor, views, 1)
    reg = TelemetryRegistry()
    monitor.register_into(reg)
    assert reg.value("lb_marked_down_total", subsystem="fleet") == 1
    assert reg.value("lb_failovers_total", subsystem="fleet") == 0


# -- failover against a full scan of the views ------------------------- #

_HEALTH_OP = st.one_of(
    # A window barrier: some nodes complete requests, then observation.
    st.tuples(st.just("window"),
              st.lists(st.integers(min_value=0, max_value=3),
                       min_size=5, max_size=5)),
    st.tuples(st.just("dispatch"), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("failover"), st.integers(min_value=0, max_value=4)),
)


def _full_scan(monitor, views, node_id):
    """Naive reference: least-outstanding healthy node by a scan of
    every view."""
    healthy = [(view.outstanding(), view.node_id, i)
               for i, view in enumerate(views) if not monitor.down[i]]
    return min(healthy)[2] if healthy else node_id


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_HEALTH_OP, max_size=120))
def test_hooked_fallback_matches_a_full_scan(ops):
    """Failover reads the window's keys, built on its first failover
    and bumped on each dispatch; every choice equals a full scan of the
    live views, as nodes go down and come back."""
    monitor, views = make_monitor(
        n=5, down_after_windows=1, up_after_windows=1, min_outstanding=2)

    for op in ops:
        if op[0] == "window":
            for view, done in zip(views, op[1]):
                done = min(done, view._outstanding)
                view._outstanding -= done
                view._completed += done
            monitor.observe_window()
        elif op[0] == "dispatch":
            dispatch(monitor, views, op[1])
        else:
            target = monitor.fallback(op[1])
            assert target == _full_scan(monitor, views, op[1])
            dispatch(monitor, views, target)
