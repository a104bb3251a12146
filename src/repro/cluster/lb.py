"""Load-balancer dispatch policies.

The balancer sees each node through a :class:`NodeView`: its own
dispatch count minus the node's completion count (the node-reported
side is read at lockstep-window granularity, so it is stale by at most
one LB wire latency — exactly what a real L4/L7 balancer observes), and
the node's current DVFS operating point for the power-aware policy.

Node state is frozen while a window dispatches, so a feedback policy
reads it once per window: :meth:`DispatchPolicy.refresh` builds one
sort key per node at the window barrier, each :meth:`~DispatchPolicy.
choose` is one C-level ``min`` over those keys, and
:meth:`~DispatchPolicy.on_dispatch` bumps the routed node's key. That
makes every decision the per-request full scan would make, at O(nodes)
per window instead of per request.

Policies are deterministic: any randomness (power-of-two-choices
candidate sampling) draws from a dedicated stream derived from the
fleet seed, so reruns and worker processes dispatch identically.
"""

from __future__ import annotations

# Audited (D002): ``random`` is imported for the Random type only —
# no policy constructs or seeds a generator here. The single instance
# every policy draws from is built by FleetSystem, seeded via
# repro.sim.rng.derive_stream(config.seed, "fleet", "lb").
import random
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

#: Every node's outstanding count, and its relative speed when asked.
WindowState = Tuple[List[int], Optional[List[float]]]


class NodeView:
    """What the load balancer knows about one node."""

    __slots__ = ("node_id", "system", "dispatched", "_client", "_processor")

    def __init__(self, node_id: int, system):
        self.node_id = node_id
        self.system = system
        #: Requests this balancer has sent to the node so far.
        self.dispatched = 0
        self._client = system.client
        self._processor = system.processor

    @property
    def n_cores(self) -> int:
        return self._processor.n_cores

    def completed(self) -> int:
        """Completions the node has reported (window-granular, like a
        real balancer's response accounting)."""
        return self._client.completed

    def outstanding(self) -> int:
        """Dispatched requests not yet answered (as the LB observes it).

        Abandoned requests (client gave up after exhausting its retry
        budget) tear their connection down, which the balancer observes
        just like a response — without this, a blackout would inflate a
        node's apparent load forever. ``gave_up`` is 0 whenever no retry
        policy is configured, so non-fault fleets are unaffected.
        """
        client = self._client
        return self.dispatched - client.completed - client.gave_up

    @staticmethod
    def read_window(views: List["NodeView"], want_speed: bool
                    ) -> WindowState:
        """Every node's :meth:`outstanding` count and, when asked, its
        relative speed (mean core clock over P0, which the processor
        keeps current on each P-state change), in plain attribute reads.
        """
        outstanding = [view.dispatched - view._client.completed
                       - view._client.gave_up for view in views]
        if not want_speed:
            return outstanding, None
        return outstanding, [view._processor.relative_speed
                             for view in views]


class RemoteNodeView:
    """A :class:`NodeView` fed from worker-reported barrier snapshots.

    The sharded master holds no ``ServerSystem``s; what the balancer,
    health monitor, and budget arbiter observe at each window barrier is
    whatever the owning worker reported at the previous barrier — the
    same values the serial fleet would read live, because node state
    only changes while a window runs. Counters live in shared numpy
    arrays (one slot per node) so a shard's report is applied as one
    vectorized slice assignment.
    """

    __slots__ = ("node_id", "n_cores", "dispatched",
                 "_completed", "_gave_up", "_speed")

    def __init__(self, node_id: int, n_cores: int,
                 completed: np.ndarray, gave_up: np.ndarray,
                 speed: np.ndarray):
        self.node_id = node_id
        self.n_cores = n_cores
        #: Requests this balancer has sent to the node so far (the
        #: master is the balancer, so this side is exact, not reported).
        self.dispatched = 0
        self._completed = completed
        self._gave_up = gave_up
        self._speed = speed

    def completed(self) -> int:
        return int(self._completed[self.node_id])

    def outstanding(self) -> int:
        return (self.dispatched - int(self._completed[self.node_id])
                - int(self._gave_up[self.node_id]))

    @staticmethod
    def read_window(views: List["RemoteNodeView"], want_speed: bool
                    ) -> WindowState:
        """:meth:`NodeView.read_window` over the reported arrays (all
        views of one fleet, in node order), vectorized."""
        first = views[0]
        outstanding = (np.array([view.dispatched for view in views],
                                dtype=np.int64)
                       - first._completed - first._gave_up).tolist()
        return outstanding, (first._speed.tolist() if want_speed else None)


class DispatchPolicy:
    """Chooses the serving node for each request."""

    name = "base"
    #: True when decisions never depend on node feedback (outstanding
    #: counts, speeds). Feedback-free dispatch can be precomputed and
    #: fed to the nodes up front, which is what makes a 1-node fleet
    #: bit-identical to a standalone run.
    feedback_free = False
    #: True when the window keys read node speeds — the sharded driver
    #: only ships per-node DVFS telemetry across the process boundary
    #: for policies that consume it.
    uses_speed = False

    def bind(self, views: List[NodeView], rng: random.Random) -> None:
        self.views = views
        self.rng = rng
        if not self.feedback_free:
            self._read = type(views[0]).read_window
            self.refresh()

    def window_keys(self) -> list:
        """One sort key per node, read from the views now (feedback
        policies only)."""
        raise NotImplementedError

    def refresh(self) -> None:
        """Snapshot node state at a window barrier, before the window's
        first :meth:`choose` (and after any health redispatch)."""
        self._keys = self.window_keys()

    def snapshot_key(self, node_id: int):
        """The key ``node_id`` is dispatched against this window."""
        return self._keys[node_id]

    def choose(self, created_ns: int, session_id: int) -> int:
        raise NotImplementedError

    def on_dispatch(self, node_id: int) -> None:
        """One request was routed to ``node_id`` (after health routing):
        keep its snapshot key equal to a fresh read."""

    def choose_batch(self, times_ns: np.ndarray,
                     sessions: np.ndarray) -> np.ndarray:
        """Vectorized dispatch of a whole arrival schedule from a fresh
        :meth:`bind`.

        Required of feedback-free policies (a feedback policy's
        decisions depend on state that evolves between arrivals).
        Implementations must be bit-identical to the ``choose`` loop
        and must leave any internal state consistent with having
        dispatched the whole batch.
        """
        raise NotImplementedError


class RoundRobinPolicy(DispatchPolicy):
    """Connection-affine round-robin (an L4 balancer).

    Each *new* session is pinned to the next node in rotation; all of a
    session's requests follow it. With per-request-fresh sessions this
    degenerates to classic per-request round-robin.
    """

    name = "round-robin"
    feedback_free = True

    def bind(self, views, rng) -> None:
        super().bind(views, rng)
        self._session_node: Dict[int, int] = {}
        self._next = 0

    def choose(self, created_ns: int, session_id: int) -> int:
        node = self._session_node.get(session_id)
        if node is None:
            node = self._next
            self._session_node[session_id] = node
            self._next = (self._next + 1) % len(self.views)
        return node

    def choose_batch(self, times_ns: np.ndarray,
                     sessions: np.ndarray) -> np.ndarray:
        """The whole schedule at once: sessions ranked by first
        appearance, rank mod n — bit-identical to the ``choose`` loop
        (enforced by test) without the per-request Python round trip."""
        n = len(self.views)
        uniq, first_idx, inverse = np.unique(
            sessions, return_index=True, return_inverse=True)
        # np.unique sorts by session id; appearance rank is the inverse
        # permutation of the first-occurrence order.
        rank = np.argsort(np.argsort(first_idx, kind="stable"),
                          kind="stable")
        node_of_uniq = rank % n
        self._session_node = {int(s): int(v)
                              for s, v in zip(uniq, node_of_uniq)}
        self._next = int(len(uniq) % n)
        return node_of_uniq[inverse]


class LeastOutstandingPolicy(DispatchPolicy):
    """Least-outstanding over every node (an L7 balancer).

    Keys are ``(outstanding, node_id)``: ties go to the lowest node id.
    """

    name = "least-outstanding"

    def window_keys(self) -> list:
        outstanding, _ = self._read(self.views, False)
        return list(zip(outstanding, range(len(outstanding))))

    def choose(self, created_ns: int, session_id: int) -> int:
        return min(self._keys)[1]

    def on_dispatch(self, node_id: int) -> None:
        keys = self._keys
        outstanding, nid = keys[node_id]
        keys[node_id] = (outstanding + 1, nid)


class PowerOfTwoPolicy(DispatchPolicy):
    """Power-of-two-choices: sample two nodes, pick the less loaded.

    O(1) per request with most of full-scan's balancing power — the
    classic result. Ties keep the first sample. Keys are the
    outstanding counts.
    """

    name = "p2c"

    def window_keys(self) -> list:
        return self._read(self.views, False)[0]

    def choose(self, created_ns: int, session_id: int) -> int:
        n = len(self.views)
        if n == 1:
            return 0
        a = self.rng.randrange(n)
        b = self.rng.randrange(n - 1)
        if b >= a:
            b += 1
        keys = self._keys
        if keys[b] < keys[a]:
            return b
        return a

    def on_dispatch(self, node_id: int) -> None:
        self._keys[node_id] += 1


class PowerAwarePolicy(DispatchPolicy):
    """Least-outstanding with a DVFS-telemetry tie-break.

    Among the least-loaded nodes, prefer the one whose cores already run
    fastest: it serves without waiting out DVFS ramp-up, and the slow
    nodes stay slow (low uncore power) instead of everyone oscillating.
    ``speed_bands`` quantizes the speed signal so the tie-break is
    robust to tiny frequency jitter. Keys are ``(outstanding, -band,
    node_id)``.
    """

    name = "power-aware"
    uses_speed = True

    def __init__(self, speed_bands: int = 8):
        if speed_bands < 1:
            raise ValueError("speed_bands must be >= 1")
        self.speed_bands = speed_bands

    def window_keys(self) -> list:
        outstanding, speed = self._read(self.views, True)
        bands = self.speed_bands
        return list(zip(outstanding, [-int(s * bands) for s in speed],
                        range(len(outstanding))))

    def choose(self, created_ns: int, session_id: int) -> int:
        return min(self._keys)[2]

    def on_dispatch(self, node_id: int) -> None:
        keys = self._keys
        outstanding, band, nid = keys[node_id]
        keys[node_id] = (outstanding + 1, band, nid)


POLICIES: Dict[str, Type[DispatchPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastOutstandingPolicy.name: LeastOutstandingPolicy,
    PowerOfTwoPolicy.name: PowerOfTwoPolicy,
    PowerAwarePolicy.name: PowerAwarePolicy,
}


def make_policy(name: str, **params) -> DispatchPolicy:
    """Instantiate a dispatch policy by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown dispatch policy {name!r}; "
                         f"known: {sorted(POLICIES)}") from None
    return cls(**params)
