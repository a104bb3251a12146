"""Dispatch policies: determinism and choice behaviour (unit level)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import FleetConfig
from repro.cluster.fleet import _session_ids
from repro.cluster.lb import (POLICIES, NodeView, PowerAwarePolicy,
                              RemoteNodeView, make_policy)
from repro.cpu.pstate import PStateTable
from repro.cpu.topology import Processor
from repro.sim.simulator import Simulator
from repro.units import GHZ


def full_scan_speed(processor):
    """Mean core clock over P0, summed over the cores on every read."""
    pstates = processor.pstates
    total = sum(pstates.freq_of(core.pstate_index)
                for core in processor.cores)
    return total / (len(processor.cores) * pstates.p0.freq_hz)


class FakeCore:
    def __init__(self, pstate_index=0):
        self.pstate_index = pstate_index


class FakeProcessor:
    def __init__(self, pstate_indices):
        self.pstates = PStateTable.linear(1.2 * GHZ, 3.2 * GHZ, 16)
        self.cores = [FakeCore(i) for i in pstate_indices]
        self.relative_speed = full_scan_speed(self)

    @property
    def n_cores(self):
        return len(self.cores)


class FakeClient:
    def __init__(self):
        self.completed = 0
        self.gave_up = 0


class FakeSystem:
    def __init__(self, pstate_indices=(0, 0), processor=None):
        self.processor = processor or FakeProcessor(pstate_indices)
        self.client = FakeClient()


def make_views(n, pstates=None):
    views = [NodeView(i, FakeSystem(pstates[i] if pstates else (0, 0)))
             for i in range(n)]
    return views


def bind(policy, views, seed=0):
    policy.bind(views, random.Random(seed))
    return policy


def test_registry_has_all_policies():
    assert set(POLICIES) == {"round-robin", "least-outstanding", "p2c",
                             "power-aware"}
    for name in POLICIES:
        assert make_policy(name).name == name


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown dispatch policy"):
        make_policy("random")


def test_round_robin_is_session_affine():
    policy = bind(make_policy("round-robin"), make_views(3))
    # New sessions rotate; repeats stick to their node.
    assert [policy.choose(0, s) for s in (10, 11, 12, 13)] == [0, 1, 2, 0]
    assert policy.choose(99, 11) == 1
    assert policy.choose(99, 13) == 0
    assert policy.feedback_free


def test_round_robin_batch_equals_scalar_loop():
    sessions = _session_ids(
        FleetConfig(n_sessions=40, session_skew=1.0), 5000)
    times = np.arange(len(sessions), dtype=np.int64) * 1000
    scalar = bind(make_policy("round-robin"), make_views(5))
    expected = [scalar.choose(int(t), int(s))
                for t, s in zip(times, sessions)]
    batch = bind(make_policy("round-robin"), make_views(5))
    assert batch.choose_batch(times, sessions).tolist() == expected
    assert batch._session_node == scalar._session_node
    assert batch._next == scalar._next


def test_feedback_policies_have_no_batch_dispatch():
    policy = bind(make_policy("least-outstanding"), make_views(2))
    with pytest.raises(NotImplementedError):
        policy.choose_batch(np.zeros(1, dtype=np.int64),
                            np.zeros(1, dtype=np.int64))


def test_least_outstanding_scans_all_nodes():
    views = make_views(3)
    policy = bind(make_policy("least-outstanding"), views)
    views[0].dispatched = 5
    views[1].dispatched = 2
    views[2].dispatched = 9
    policy.refresh()
    assert policy.choose(0, 0) == 1
    # Completions reduce the observed backlog.
    views[2].system.client.completed = 9
    policy.refresh()
    assert policy.choose(0, 0) == 2


def test_least_outstanding_ties_break_low_node_id():
    policy = bind(make_policy("least-outstanding"), make_views(4))
    assert policy.choose(0, 0) == 0


def test_p2c_picks_the_less_loaded_of_its_pair():
    views = make_views(2)
    policy = bind(make_policy("p2c"), views)
    views[0].dispatched = 100
    policy.refresh()
    # With 2 nodes the sampled pair is always {0, 1}.
    for _ in range(10):
        assert policy.choose(0, 0) == 1


def test_p2c_is_deterministic_under_seed():
    choices_a = [bind(make_policy("p2c"), make_views(5), seed=7)
                 .choose(t, 0) for t in range(50)]
    choices_b = [bind(make_policy("p2c"), make_views(5), seed=7)
                 .choose(t, 0) for t in range(50)]
    # Rebinding with the same seed replays the same candidate stream
    # (one draw per choose on fresh policies).
    policy = bind(make_policy("p2c"), make_views(5), seed=7)
    choices_c = [policy.choose(t, 0) for t in range(50)]
    assert choices_a == choices_b
    assert len(set(choices_c)) > 1  # it does spread load


def test_power_aware_prefers_the_faster_node_on_ties():
    # Node 1's cores sit at P0 (fast); node 0's at P15 (slow).
    views = make_views(2, pstates=[(15, 15), (0, 0)])
    policy = bind(make_policy("power-aware"), views)
    assert policy.choose(0, 0) == 1
    # Outstanding load dominates the speed tie-break.
    views[1].dispatched = 3
    policy.refresh()
    assert policy.choose(0, 0) == 0


def test_power_aware_speed_bands_quantize():
    # P8 (~2.13 GHz) vs P15 (1.2 GHz): distinct at 8 bands, equal at 1.
    views = make_views(2, pstates=[(15, 15), (8, 8)])
    fine = bind(PowerAwarePolicy(speed_bands=8), views)
    assert fine.choose(0, 0) == 1
    coarse = bind(PowerAwarePolicy(speed_bands=1), make_views(
        2, pstates=[(15, 15), (8, 8)]))
    assert coarse.choose(0, 0) == 0  # same band, node-id tie-break
    with pytest.raises(ValueError):
        PowerAwarePolicy(speed_bands=0)


def test_node_view_relative_speed():
    """A view reads the speed the processor keeps current on each
    P-state change: the mean core clock over P0."""
    processor = Processor(Simulator(), n_cores=2)
    pstates = processor.pstates
    view = NodeView(0, FakeSystem(processor=processor))

    def speed():
        return NodeView.read_window([view], True)[1][0]

    assert speed() == 1.0
    for core in processor.cores:
        core.set_pstate_index(pstates.max_index)
    assert speed() == pytest.approx(pstates.pmin.freq_hz / pstates.p0.freq_hz)
    processor.cores[0].set_pstate_index(0)
    assert speed() == full_scan_speed(processor)
    assert NodeView.read_window([view], False) == ([0], None)


def test_remote_views_read_the_reported_arrays():
    completed = np.array([3, 0, 5], dtype=np.int64)
    gave_up = np.array([1, 0, 0], dtype=np.int64)
    speed = np.array([1.0, 0.5, 0.75])
    views = [RemoteNodeView(i, 2, completed, gave_up, speed)
             for i in range(3)]
    for view, dispatched in zip(views, (10, 2, 5)):
        view.dispatched = dispatched
    assert RemoteNodeView.read_window(views, True) == (
        [6, 2, 0], [1.0, 0.5, 0.75])
    assert [view.outstanding() for view in views] == [6, 2, 0]


# -- window snapshot == per-request full scan --------------------------- #

FEEDBACK = ("least-outstanding", "p2c", "power-aware")


def full_scan_choose(name, views, rng, speed_bands=8):
    """The feedback policies as a per-request scan of live node state."""
    if name == "least-outstanding":
        return min(views, key=lambda v: (v.outstanding(), v.node_id)).node_id
    if name == "p2c":
        n = len(views)
        if n == 1:
            return 0
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        return b if views[b].outstanding() < views[a].outstanding() else a

    def score(view):
        band = int(full_scan_speed(view.system.processor) * speed_bands)
        return (view.outstanding(), -band, view.node_id)

    return min(views, key=score).node_id


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(FEEDBACK), n_nodes=st.integers(1, 5),
       n_cores=st.integers(1, 3), seed=st.integers(0, 2**16),
       data=st.data())
def test_window_dispatch_equals_full_scan(name, n_nodes, n_cores, seed,
                                          data):
    """Random P-states, backlogs and health redirects: dispatching a
    window from its snapshot makes every choice a live scan makes."""
    views = [NodeView(i, FakeSystem(processor=Processor(
        Simulator(), n_cores=n_cores))) for i in range(n_nodes)]
    policy = bind(make_policy(name), views, seed)
    oracle_rng = random.Random(seed)
    node = st.integers(0, n_nodes - 1)
    for _ in range(data.draw(st.integers(1, 4), label="windows")):
        # The window runs: nodes complete, give up, and change P-state.
        for view in views:
            client = view.system.client
            answered = data.draw(st.integers(0, view.outstanding()))
            gave_up = data.draw(st.integers(0, answered))
            client.completed += answered - gave_up
            client.gave_up += gave_up
            for core in view.system.processor.cores:
                core.set_pstate_index(data.draw(st.integers(0, 15)))
        # Health routing sends some nodes' requests elsewhere.
        redirect = data.draw(st.dictionaries(node, node, max_size=2))
        policy.refresh()
        for _ in range(data.draw(st.integers(0, 12), label="arrivals")):
            chosen = policy.choose(0, 0)
            assert chosen == full_scan_choose(name, views, oracle_rng)
            routed = redirect.get(chosen, chosen)
            views[routed].dispatched += 1
            policy.on_dispatch(routed)
            assert policy.snapshot_key(routed) == \
                policy.window_keys()[routed]
