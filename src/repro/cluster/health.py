"""LB health checking, failover, and re-dispatch.

A real L7 balancer cannot see inside a node; it infers health from the
signals it already has — dispatches vs. completions. The
:class:`HealthMonitor` applies that inference once per lockstep window
(the LB's natural observation cadence): a node that stops completing
while holding outstanding requests is *stalled*; enough consecutive
stalled windows mark it down. Down nodes receive one probe request per
probe interval (active health checking); everything else fails over to
the least-outstanding healthy node. When a node goes down, up to
``redispatch_budget`` of its outstanding requests are re-issued to
healthy nodes — the application-level "retry against another backend".
The re-issued requests are new requests; the originals may still
complete after recovery (their responses then simply arrive late), as
with real at-least-once retry semantics.

Everything here is a deterministic function of window-boundary node
state, so fleet runs with health checking remain pure functions of
(config, seed).

Observation is dispatch-hooked: the embedder calls :meth:`on_dispatch`
for *every* dispatch, which lets the monitor keep an *active set* — a
node can only become stall-suspect (``outstanding >= min_outstanding``)
through dispatches, so nodes outside the set provably scan to "healthy,
not stalled" and are skipped. An idle fleet's observation is O(1)
instead of O(nodes), and a fully idle span of windows collapses to
:meth:`fast_forward` — the hook that makes adaptive-lookahead strides
exact. Its decisions equal a scan of every view (enforced by test).

Probe scheduling keeps no per-window state at all: instead of resetting
a per-node "probed this window" flag every observation, each down node
carries its next eligible probe window, mirrored into a small heap whose
top answers "could any probe fire this window?" in O(1) on the dispatch
path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the LB health checker (all in lockstep windows)."""

    #: Consecutive stalled windows before a node is marked down. A
    #: lockstep window is the LB wire latency (microseconds), far
    #: shorter than a service time, so this must span several service
    #: times' worth of windows or quiet-but-healthy nodes flap.
    down_after_windows: int = 50
    #: Windows with completions (since mark-down, not necessarily
    #: consecutive) before a down node is marked up again.
    up_after_windows: int = 2
    #: Probe cadence: a down node receives at most one probe request
    #: every this many windows. Probes are live requests and are lost
    #: while the node is truly dead, so probing every window would
    #: itself shed a window's worth of traffic.
    probe_every_windows: int = 50
    #: A window with zero completions counts as stalled only when at
    #: least this many dispatches are unanswered (an idle node is not
    #: a dead node).
    min_outstanding: int = 8
    #: Maximum outstanding requests re-dispatched to healthy nodes when
    #: a node is marked down.
    redispatch_budget: int = 512

    def __post_init__(self):
        if self.down_after_windows < 1:
            raise ValueError("down_after_windows must be >= 1")
        if self.up_after_windows < 1:
            raise ValueError("up_after_windows must be >= 1")
        if self.min_outstanding < 1:
            raise ValueError("min_outstanding must be >= 1")
        if self.redispatch_budget < 0:
            raise ValueError("redispatch_budget must be >= 0")
        if self.probe_every_windows < 1:
            raise ValueError("probe_every_windows must be >= 1")


class HealthMonitor:
    """Window-cadence health inference over the balancer's NodeViews."""

    def __init__(self, views, policy: HealthPolicy):
        self.views = views
        self.policy = policy
        n = len(views)
        self.down = [False] * n
        self._stalled = [0] * n
        self._responsive = [0] * n
        self._last_completed = [view.completed() for view in views]
        self._window_index = 0
        self.redispatch_remaining = policy.redispatch_budget
        #: Nodes that could possibly be stalled or are down. Invariants:
        #: inactive => not down, _stalled == 0, and
        #: outstanding < min_outstanding (outstanding only grows through
        #: a dispatch, which activates).
        self._active: Set[int] = set()
        #: Next eligible probe window per down node (lazy — replaces the
        #: old per-window probed-flag reset), mirrored in a heap.
        self._next_probe = [0] * n
        self._probe_heap: List[tuple] = []
        #: This window's ``(outstanding, node_id)`` key per healthy
        #: node, built on the window's first failover (None until then).
        self._fallback_keys: Optional[Dict[int, tuple]] = None
        # Telemetry.
        self.marks_down = 0
        self.marks_up = 0
        self.probes = 0
        self.failovers = 0
        self.redispatched = 0

    @property
    def idle(self) -> bool:
        """True when observation is provably a no-op: no node is down,
        stall-suspect, or carrying unobserved dispatches."""
        return not self._active

    def on_dispatch(self, node_id: int) -> None:
        """One request was dispatched to ``node_id`` (call after
        incrementing the view's counter).

        Activates the node, resyncing its completion checkpoint to the
        value the skipped full scans would have left — reads at window
        barriers observe the same quiescent state a per-window scan
        would have, so the checkpoint is exact, not approximate.
        """
        if node_id not in self._active:
            self._active.add(node_id)
            self._last_completed[node_id] = self.views[node_id].completed()
        keys = self._fallback_keys
        if keys is not None and node_id in keys:
            outstanding, nid = keys[node_id]
            keys[node_id] = (outstanding + 1, nid)

    def fast_forward(self, n_windows: int) -> None:
        """Advance the observation clock over provably-idle windows.

        Only valid when :attr:`idle` holds *and no dispatch happens in
        the skipped span*: each skipped :meth:`observe_window` would
        then scan an empty active set, reducing to a window-index
        increment. The adaptive-lookahead stride driver uses this to
        coalesce windows without changing a single decision.
        """
        if self._active:
            raise RuntimeError(
                "fast_forward with active nodes would skip observations")
        self._window_index += n_windows
        self._fallback_keys = None

    def observe_window(self) -> List[int]:
        """Digest one window of completions; returns newly-down nodes.

        Call at each lockstep window start, before dispatching the
        window's arrivals.
        """
        self._window_index += 1
        self._fallback_keys = None
        if not self._active:
            return []
        newly_down: List[int] = []
        policy = self.policy
        for i in sorted(self._active):
            view = self.views[i]
            completed = view.completed()
            delta = completed - self._last_completed[i]
            self._last_completed[i] = completed
            if self.down[i]:
                # Responsive windows accumulate (probes are sparse, so
                # consecutive-window recovery would never trigger).
                if delta > 0:
                    self._responsive[i] += 1
                    if self._responsive[i] >= policy.up_after_windows:
                        self.down[i] = False
                        self.marks_up += 1
                        self._stalled[i] = 0
            else:
                stalled = (delta == 0
                           and view.outstanding() >= policy.min_outstanding)
                if stalled:
                    self._stalled[i] += 1
                    if self._stalled[i] >= policy.down_after_windows:
                        self.down[i] = True
                        self.marks_down += 1
                        self._responsive[i] = 0
                        self._schedule_probe(i, self._window_index)
                        newly_down.append(i)
                else:
                    self._stalled[i] = 0
                    if view.outstanding() < policy.min_outstanding:
                        # Provably boring until the next dispatch: it
                        # cannot stall below min_outstanding, and
                        # outstanding only grows via on_dispatch.
                        self._active.discard(i)
        return newly_down

    # -- probe scheduling (lazy; no per-window resets) ------------------ #

    def _schedule_probe(self, node_id: int, eligible_window: int) -> None:
        self._next_probe[node_id] = eligible_window
        heapq.heappush(self._probe_heap, (eligible_window, node_id))

    def _probe_pending(self) -> bool:
        """O(1): could any down node be probed this window? Stale heap
        entries (marked-up or rescheduled nodes) are dropped lazily."""
        heap = self._probe_heap
        while heap:
            window, nid = heap[0]
            if self.down[nid] and self._next_probe[nid] == window:
                return window <= self._window_index
            heapq.heappop(heap)
        return False

    def route(self, node_id: int) -> int:
        """Final destination for a dispatch the policy chose.

        Healthy nodes pass through. A down node gets one probe request
        per probe interval (so recovery is observable); everything else
        fails over to the least-outstanding healthy node.
        """
        if not self.down[node_id]:
            return node_id
        wi = self._window_index
        if (wi % self.policy.probe_every_windows == 0
                and wi >= self._next_probe[node_id]
                and self._probe_pending()):
            self._schedule_probe(node_id,
                                 wi + self.policy.probe_every_windows)
            self.probes += 1
            return node_id
        self.failovers += 1
        return self.fallback(node_id)

    def fallback(self, node_id: int) -> int:
        """Least-outstanding healthy node (or ``node_id`` if none).

        Nodes compare by ``(outstanding, node_id)``. Node state is
        frozen within a window and ``down`` changes only in
        :meth:`observe_window`, so the keys are built once per window,
        on its first failover, and :meth:`on_dispatch` bumps the routed
        node's key: every choice equals a full scan's.
        """
        keys = self._fallback_keys
        if keys is None:
            down = self.down
            keys = {i: (view.outstanding(), view.node_id)
                    for i, view in enumerate(self.views) if not down[i]}
            self._fallback_keys = keys
        if not keys:
            return node_id
        return min(keys, key=keys.__getitem__)

    def take_redispatch(self, node_id: int) -> int:
        """Redispatch allowance for a freshly-down node (consumes budget)."""
        want = min(self.views[node_id].outstanding(),
                   self.redispatch_remaining)
        self.redispatch_remaining -= want
        self.redispatched += want
        return want

    def register_into(self, reg) -> None:
        """Expose health-checker counters in a telemetry registry."""
        reg.counter("lb_marked_down_total", "Nodes marked down",
                    subsystem="fleet").inc(self.marks_down)
        reg.counter("lb_marked_up_total", "Down nodes marked up again",
                    subsystem="fleet").inc(self.marks_up)
        reg.counter("lb_probes_total",
                    "Probe requests routed to down nodes",
                    subsystem="fleet").inc(self.probes)
        reg.counter("lb_failovers_total",
                    "Dispatches failed over from down nodes",
                    subsystem="fleet").inc(self.failovers)
        reg.counter("lb_redispatched_total",
                    "Outstanding requests re-issued on mark-down",
                    subsystem="fleet").inc(self.redispatched)
