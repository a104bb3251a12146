"""Fleet co-simulation: N server nodes in conservative lockstep.

Each node is a complete :class:`~repro.system.ServerSystem` with its own
event kernel; the fleet advances all of them window by window, where the
window length (lookahead) is the LB->node wire latency. A dispatch
decided at a window's start physically cannot reach a node before the
window ends, so dispatching a whole window at once from start-of-window
node state is *exact* under the model, not an approximation — and the
whole co-simulation stays deterministic and bit-reproducible.

Two dispatch paths:

* **Feedback-free policies** (round-robin): the entire dispatch is a
  pure function of the arrival schedule, so it is precomputed
  (vectorized, ``DispatchPolicy.choose_batch``) and fed to every node
  before power management starts — replicating the exact standalone
  event ordering. A 1-node fleet is bit-identical to the equivalent
  standalone run (enforced by test).
* **Feedback policies** (least-outstanding, p2c, power-aware): each
  window's arrivals are dispatched with the node states observed at the
  window start (stale by at most one wire latency, as for a real
  balancer), then fed before the window runs.

:class:`FleetSystem` is the one fleet class. Its single ``run`` body
makes every fleet-level decision — dispatch, health, budget, strides,
timeline — through :func:`drive_lockstep`, against a node backend:
``_LocalBackend`` calls into live nodes in this process, and
``repro.cluster.sharded`` ships the same calls to worker processes when
``config.shards`` > 1. That is how sharded runs stay bit-identical to
serial ones by construction rather than by reimplementation.

**Adaptive lookahead (strides).** The conservative window length bounds
information flow, but most windows carry no information at all: no
arrival to dispatch, no health observation with anything to observe, no
budget period expiring. The driver coalesces such windows into one
``run_until`` stride (up to ``FleetConfig.max_stride_windows``), which
is exact because per-node event execution is barrier-invariant —
``run_until(a); run_until(b)`` and ``run_until(b)`` fire the identical
event sequence — and every LB-side read or write happens at a barrier
the stride preserves. ``max_stride_windows=1`` reproduces the literal
window-by-window loop; results are bit-identical either way (enforced
by ``tests/cluster/test_stride.py``).
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.analysis.sanitize import (SanitizerError, check_dispatch_bounds,
                                     check_stride_plan)
from repro.cluster.config import FleetConfig
from repro.cluster.health import HealthMonitor
from repro.cluster.lb import NodeView, make_policy
from repro.cluster.power import BudgetArbiter, busy_ns, power_ladder
from repro.metrics.energy import EnergySummary
from repro.obs.registry import TelemetryRegistry
from repro.sim.perf import LockstepPerf
from repro.sim.rng import derive_stream
from repro.system import RunResult, ServerSystem, validate_server_config
from repro.units import MS, S
from repro.workload.profiles import levels_for
from repro.workload.shapes import ScaledLoad, generate_arrivals

if TYPE_CHECKING:
    from repro.metrics.latency import LatencyStats
    from repro.metrics.slo import SloResult
    from repro.obs.timeline import TimelineDriver, TimelineResult


@dataclass
class FleetResult:
    """Outcome of one :meth:`FleetSystem.run`."""

    config: FleetConfig
    duration_ns: int
    #: Full per-node results (each exactly a standalone-run result).
    node_results: List[RunResult]
    #: Requests the balancer sent to each node.
    dispatched: List[int]
    sent: int
    completed: int
    dropped: int
    #: All nodes' completed-request latencies, concatenated node-major.
    latencies_ns: np.ndarray
    energy: EnergySummary
    slo_ns: int
    #: Per-node registries merged under a ``node`` label, plus
    #: fleet-subsystem instruments (dispatch counts, rebalances).
    telemetry: Optional[TelemetryRegistry]
    lockstep_windows: int
    rebalances: int
    #: Lockstep-drive counters (strides, shards, wall). Execution
    #: detail: ``shards``/``wall_s`` legitimately differ between
    #: bit-identical runs, so parity comparisons must skip this field.
    perf: Optional[LockstepPerf] = None
    #: Windowed time-series of the run (``repro.obs.timeline``); None
    #: when ``config.timeline`` is unset. Bit-identical across shard
    #: counts and stride settings (enforced by test).
    timeline: Optional[TimelineResult] = None

    def latency_stats(self) -> LatencyStats:
        """Percentile summary over the whole fleet's requests."""
        from repro.metrics.latency import LatencyStats
        return LatencyStats.from_sample(self.latencies_ns)

    def slo_result(self) -> SloResult:
        """Fleet-level p99-vs-SLO verdict."""
        from repro.metrics.slo import check_slo
        return check_slo(self.latencies_ns, self.slo_ns)

    @property
    def p99_ns(self) -> float:
        return self.slo_result().p99_ns

    @property
    def energy_j(self) -> float:
        return self.energy.package_j

    def node_p99s_ns(self) -> List[float]:
        """Per-node p99 latencies, in node order."""
        from repro.metrics.fleet import node_p99s_ns
        return node_p99s_ns(self.node_results)

    def imbalance(self) -> float:
        """Worst-node p99 over fleet p99 (1.0 = perfectly balanced)."""
        from repro.metrics.fleet import imbalance_ratio
        return imbalance_ratio(self.node_p99s_ns(), self.p99_ns)


# --------------------------------------------------------------------- #
# The shared lockstep driver (serial and sharded backends).
# --------------------------------------------------------------------- #

def precompute_feedback_free(policy, views, times: array,
                             sessions: np.ndarray,
                             n_nodes: int) -> List[List[int]]:
    """Dispatch a whole schedule up front (feedback-free policies only)
    through the policy's vectorized ``choose_batch`` (bit-identical to
    the scalar ``choose`` loop, enforced by test)."""
    times_arr = np.frombuffer(times, dtype=np.int64)
    nodes = policy.choose_batch(times_arr, sessions)
    for view, count in zip(views, np.bincount(nodes, minlength=n_nodes)):
        view.dispatched += int(count)
    return [times_arr[nodes == nid].tolist() for nid in range(n_nodes)]


def drive_lockstep(config: FleetConfig, duration_ns: int,
                   times: Sequence[int], sessions: np.ndarray, policy,
                   monitor: Optional[HealthMonitor],
                   arbiter: Optional[BudgetArbiter],
                   backend,
                   timeline: Optional[TimelineDriver] = None
                   ) -> LockstepPerf:
    """Advance a node backend through all lockstep windows of one run.

    Owns every fleet-level decision — dispatch, health observation,
    budget arbitration, stride coalescing, timeline sampling — so any
    two backends given the same config make the same decisions in the
    same order. The backend only feeds arrivals, applies caps, runs
    nodes to barriers, and reports sample rows
    (``repro.cluster.sharded`` ships those over pipes; the in-process
    backend calls straight into the nodes).
    """
    window_ns = config.lb_wire_latency_ns
    n_nodes = config.n_nodes
    views = backend.views
    sanitizing = backend.sanitizing
    max_stride = max(1, config.max_stride_windows)
    if backend.periodic_energy:
        # Per-window energy conservation is explicitly a *window*
        # cadence check: honor it literally.
        max_stride = 1
    prefed = policy.feedback_free and monitor is None
    perf = LockstepPerf()
    n_times = len(times)

    if prefed:
        # Precompute the full dispatch and feed it before anything
        # runs: each node sees exactly the event sequence a standalone
        # client.start() would have produced.
        backend.prefeed(precompute_feedback_free(
            policy, views, times, sessions, n_nodes))
        backend.start_power()
        if arbiter is None and max_stride > 1 and timeline is None:
            # Nothing ever happens at a barrier: one stride to the end.
            n_windows = -(-duration_ns // window_ns)
            backend.run_span(0, duration_ns, n_windows, None, None,
                             False, False, False)
            perf.windows = n_windows
            perf.strides = 1
            perf.max_stride = n_windows
            return perf
    else:
        backend.start_power()

    want_state = not prefed
    want_speed = want_state and policy.uses_speed
    idx = 0
    t = 0
    while t < duration_ns:
        batches = None
        if not prefed:
            batches = [[] for _ in range(n_nodes)]
            window_end = min(t + window_ns, duration_ns)
            if monitor is not None:
                # Window-cadence health inference. A node marked down
                # this window gets (budgeted) replacements of its
                # outstanding requests re-issued to healthy nodes at
                # the window start — fed first, so the per-node arrival
                # streams stay non-decreasing.
                for down_nid in monitor.observe_window():
                    for _ in range(monitor.take_redispatch(down_nid)):
                        target = monitor.fallback(down_nid)
                        views[target].dispatched += 1
                        monitor.on_dispatch(target)
                        batches[target].append(t)
            while idx < n_times and times[idx] < window_end:
                created = times[idx]
                nid = policy.choose(created, int(sessions[idx]))
                if monitor is not None:
                    nid = monitor.route(nid)
                if sanitizing:
                    # A feedback policy may only see arrivals of its
                    # own window: anything earlier means the balancer
                    # skipped a window, anything later means it read
                    # state it could not have.
                    check_dispatch_bounds(nid, created, t, window_end)
                views[nid].dispatched += 1
                if monitor is not None:
                    monitor.on_dispatch(nid)
                batches[nid].append(created)
                idx += 1
        caps = None
        if arbiter is not None:
            caps = arbiter.maybe_rebalance(t, backend.busy())

        # Adaptive lookahead: coalesce windows in which provably
        # nothing fleet-level can happen — no arrival to dispatch, no
        # budget firing, no health observation with active nodes.
        k = max_stride
        barrier = None
        if k > 1:
            if timeline is not None:
                # Strides may never skip a sample barrier: the sample
                # grid is a multiple of the window, so capping here
                # makes the sampled rows invariant across stride
                # settings (and shard counts).
                k = min(k, (timeline.next_grid_ns(t) - t) // window_ns)
            if arbiter is not None:
                barrier = arbiter.next_fire_barrier(t, window_ns)
                k = min(k, (barrier - t) // window_ns)
            if not prefed:
                if idx < n_times:
                    k = min(k, (times[idx] // window_ns * window_ns - t)
                            // window_ns)
                if monitor is not None and not monitor.idle:
                    k = 1
            if k < 1:
                k = 1
        run_to = min(t + k * window_ns, duration_ns)
        n_windows = -(-(run_to - t) // window_ns)
        if n_windows > 1:
            if monitor is not None:
                monitor.fast_forward(n_windows - 1)
            if sanitizing:
                check_stride_plan(
                    t, run_to, window_ns,
                    times[idx] if (not prefed and idx < n_times) else None,
                    barrier,
                    monitor.idle if monitor is not None else True)
        want_timeline = timeline is not None and timeline.due(run_to)
        rows = backend.run_span(
            t, run_to, n_windows, batches, caps, want_state, want_speed,
            arbiter is not None and run_to >= arbiter.next_fire_ns(),
            want_timeline)
        perf.windows += n_windows
        perf.strides += 1
        if n_windows > perf.max_stride:
            perf.max_stride = n_windows
        t = run_to
        if want_timeline:
            # Fleet-level series ship as cumulative totals; the driver
            # converts to per-window deltas.
            fleet_totals = (sum(view.dispatched for view in views),
                            perf.windows, perf.strides)
            if timeline.on_sample(run_to, rows, fleet_totals):
                break  # an abort=True monitor tripped: truncate here
    return perf


def build_fleet_result(config: FleetConfig, duration_ns: int,
                       node_results: List[RunResult],
                       dispatched: Sequence[int], perf: LockstepPerf,
                       rebalances: int,
                       monitor: Optional[HealthMonitor],
                       timeline: Optional[TimelineResult] = None
                       ) -> FleetResult:
    """Assemble a :class:`FleetResult` from the backend's node results."""
    n_windows = perf.windows
    latencies = (np.concatenate([r.latencies_ns for r in node_results])
                 if node_results else np.empty(0, dtype=np.int64))
    energy = EnergySummary(
        package_j=sum(r.energy.package_j for r in node_results),
        cores_j=sum(r.energy.cores_j for r in node_results),
        duration_s=duration_ns / S)

    telemetry = TelemetryRegistry()
    for i, result in enumerate(node_results):
        telemetry.merge_from(result.telemetry, node=i)
    for i, count in enumerate(dispatched):
        telemetry.counter("lb_dispatched_total",
                          "Requests dispatched per node",
                          subsystem="fleet", node=str(i)).inc(count)
    telemetry.counter("lockstep_windows_total",
                      "Conservative lockstep windows advanced",
                      subsystem="fleet").inc(n_windows)
    telemetry.counter("budget_rebalances_total",
                      "Power-budget redistributions",
                      subsystem="fleet").inc(rebalances)
    if monitor is not None:
        monitor.register_into(telemetry)
    if timeline is not None:
        timeline.register_into(telemetry)

    return FleetResult(
        config=config,
        duration_ns=duration_ns,
        node_results=node_results,
        dispatched=list(dispatched),
        sent=sum(r.sent for r in node_results),
        completed=sum(r.completed for r in node_results),
        dropped=sum(r.dropped for r in node_results),
        latencies_ns=latencies,
        energy=energy,
        slo_ns=node_results[0].slo_ns,
        telemetry=telemetry,
        lockstep_windows=n_windows,
        rebalances=rebalances,
        perf=perf,
        timeline=timeline)


def validate_fleet_config(config: FleetConfig) -> None:
    """Constructor-time validation of a fleet config."""
    if config.n_nodes < 1:
        raise ValueError("need at least one node")
    if config.n_sessions < 1:
        raise ValueError("need at least one session")
    if config.session_skew < 0:
        raise ValueError("session_skew must be >= 0")
    if config.shards < 1:
        raise ValueError("shards must be >= 1")
    if config.max_stride_windows < 1:
        raise ValueError("max_stride_windows must be >= 1")
    if not 0 < config.lb_wire_latency_ns <= config.node.wire_latency_ns:
        raise ValueError(
            f"lb_wire_latency_ns must be in (0, node wire latency "
            f"{config.node.wire_latency_ns}], got "
            f"{config.lb_wire_latency_ns}: the lookahead guarantee "
            f"needs dispatches to arrive no earlier than one window")
    # Every node's effective config, at any shard count: a bad
    # ``node_overrides`` entry fails here, not inside a shard worker.
    for node_id in range(config.n_nodes):
        validate_server_config(config.node_config(node_id))


def fleet_load_shape(config: FleetConfig):
    """The fleet-wide offered load: the node template's per-core shape
    scaled by the fleet's total core count (mirrors ServerSystem's
    per-core -> per-node scaling)."""
    node_cfg = config.node
    shape = node_cfg.load_shape
    if shape is None:
        shape = levels_for(node_cfg.app).level(node_cfg.load_level).shape()
    total_cores = node_cfg.n_cores * config.n_nodes
    if total_cores != 1:
        shape = ScaledLoad(shape, total_cores)
    return shape


def fleet_schedule(config: FleetConfig, duration_ns: int):
    """The fleet arrival schedule and session draws for one run."""
    arrival_rng = np.random.default_rng(config.arrival_seed())
    # A packed int64 array, not an ndarray: the lockstep loop indexes
    # it one element at a time, which is slower on an ndarray.
    times = array("q", generate_arrivals(
        fleet_load_shape(config), duration_ns, arrival_rng).tobytes())
    return times, _session_ids(config, len(times))


def _session_ids(config: FleetConfig, n_arrivals: int) -> np.ndarray:
    """The session each arrival belongs to (zipf-weighted draw)."""
    if config.n_sessions == 1 or n_arrivals == 0:
        return np.zeros(n_arrivals, dtype=np.int64)
    weights = np.arange(1, config.n_sessions + 1,
                        dtype=np.float64) ** -config.session_skew
    rng = np.random.default_rng(
        derive_stream(config.seed, "fleet", "sessions"))
    return rng.choice(config.n_sessions, size=n_arrivals,
                      p=weights / weights.sum())


def fleet_fault_windows(config: FleetConfig):
    """Every node's scheduled fault windows as ``(start, end, kind,
    node)`` tuples — what the timeline driver needs for crash-triggered
    flight dumps and active-fault dump annotations."""
    out = []
    for nid in range(config.n_nodes):
        plan = config.node_fault_plans.get(nid, config.node.fault_plan)
        if plan is not None:
            out.extend((w.start_ns, w.end_ns, w.kind, nid)
                       for w in plan.windows)
    return out


# --------------------------------------------------------------------- #
# In-process execution and the fleet.
# --------------------------------------------------------------------- #

class _LocalBackend:
    """The in-process node backend: direct calls into live systems.

    Builds the nodes ``node_ids`` of the fleet: all of them in-process,
    or one shard's slice as the execution half of a sharded worker,
    whose handshake ships this backend's ``ladders``, ``slo_ns`` and
    sanitizer flags — so both execution modes read them from here.
    """

    #: Wall seconds each shard spent executing spans: none in-process.
    span_wall_s: Sequence[float] = ()

    def __init__(self, config: FleetConfig, node_ids: Sequence[int]):
        self.nodes = nodes = [ServerSystem(config.node_config(i))
                              for i in node_ids]
        self.views = [NodeView(i, node) for i, node in zip(node_ids, nodes)]
        self.ladders = [power_ladder(node.processor) for node in nodes]
        self.slo_ns = nodes[0].app.slo_ns
        self._base = node_ids[0]
        sanitizer = nodes[0].sim.sanitizer
        self.sanitizing = sanitizer is not None
        self.periodic_energy = self.sanitizing and sanitizer.periodic_energy
        # Samplers live with the nodes — the same code path whether the
        # nodes are in-process or inside a shard worker, which is what
        # makes sharded and serial timelines bit-identical.
        self.samplers = None
        if config.timeline is not None:
            from repro.obs.timeline import TimelineSampler
            self.samplers = [TimelineSampler(node) for node in nodes]

    def prefeed(self, batches: List[List[int]]) -> None:
        for node, batch in zip(self.nodes, batches):
            node.client.feed_arrivals(batch)

    def start_power(self) -> None:
        for node in self.nodes:
            node._start_power()

    def busy(self) -> List[int]:
        return [busy_ns(node) for node in self.nodes]

    def run_span(self, start: int, run_to: int, n_windows: int,
                 batches, caps, want_state: bool, want_speed: bool,
                 want_busy: bool, want_timeline: bool = False):
        # The want_state/speed/busy flags exist for the process-boundary
        # backend; the local views read live state, so nothing needs
        # shipping. Timeline rows DO need producing here — sampling at
        # the node is the code path both execution modes share.
        nodes = self.nodes
        if batches is not None:
            for node, batch in zip(nodes, batches):
                if batch:
                    node.client.feed_arrivals(batch)
        if caps is not None:
            for node, cap in zip(nodes, caps):
                node.processor.set_pstate_cap(cap)
        if not self.sanitizing:
            for node in nodes:
                node.sim.run_until(run_to)
        else:
            for nid, node in enumerate(nodes):
                node.sim.run_until(run_to)
                sanitizer = node.sim.sanitizer
                if n_windows == 1:
                    sanitizer.check_lockstep_window(self._base + nid,
                                                    start, run_to)
                else:
                    sanitizer.check_lockstep_stride(self._base + nid,
                                                    start, run_to,
                                                    n_windows)
                if sanitizer.periodic_energy:
                    sanitizer.check_energy_window(node.processor.energy,
                                                  run_to)
        if want_timeline:
            return [sampler.sample(run_to) for sampler in self.samplers]
        return None

    def finish(self, duration_ns: int, drain_ns: int, release_caps: bool,
               wall_start: float) -> List[RunResult]:
        # Measurement boundary: energy over exactly [0, duration], then
        # stop power management (and lift budget caps) and drain.
        nodes = self.nodes
        energies = [node._measure_energy(duration_ns) for node in nodes]
        for node in nodes:
            node._stop_power()
        if release_caps:
            for node in nodes:
                node.processor.set_pstate_cap(0)
        for node in nodes:
            node.sim.run_until(duration_ns + drain_ns)
        return [node._finalize_result(duration_ns, drain_ns, energy,
                                      wall_start)
                for node, energy in zip(nodes, energies)]

    def close(self) -> None:
        """Nothing to release: the nodes belong to the fleet."""


class FleetSystem:
    """N wired server nodes behind a load balancer, ready to run.

    The nodes are split over ``min(config.shards, config.n_nodes)``
    shards. One shard builds them here, in-process; more shards start
    that many worker processes from :meth:`run`, each owning a
    contiguous slice of the nodes (``repro.cluster.sharded``). Every
    fleet-level decision is made by the same :meth:`run` body either
    way, so results are bit-identical for every shard count.
    """

    def __init__(self, config: FleetConfig):
        validate_fleet_config(config)
        self.config = config
        self.n_shards = min(config.shards, config.n_nodes)
        #: The dispatch policy. Constructed here, so a bad name or
        #: parameter fails before any node or worker exists; bound to
        #: the backend's node views by :meth:`run`.
        self.policy = make_policy(config.policy, **config.policy_params)
        #: The live nodes of an in-process fleet; empty when sharded
        #: (each worker builds its own slice).
        self.nodes: List[ServerSystem] = []
        self._local: Optional[_LocalBackend] = None
        if self.n_shards == 1:
            self._local = _LocalBackend(config, range(config.n_nodes))
            self.nodes = self._local.nodes
        #: Live-sample callback for timeline runs (the ``watch``
        #: dashboard hooks in here). Runtime wiring, never config; it
        #: runs in this process for every shard count.
        self.timeline_sink = None

    # ----------------------------------------------------------------- #

    def run(self, duration_ns: int, drain_ns: int = 100 * MS) -> FleetResult:
        """Run the fleet for ``duration_ns``, then drain in-flight work."""
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        config = self.config
        wall_start = time.perf_counter()
        # The arrival schedule and session draws are fleet-level state:
        # drawn here, whichever backend executes the nodes.
        times, sessions = fleet_schedule(config, duration_ns)
        backend = self._local
        if backend is None:
            from repro.cluster.sharded import _ShardBackend
            backend = _ShardBackend(config, self.n_shards)
        try:
            views = backend.views
            # Audited (D002): the LB tie-break stream is seeded through
            # derive_stream from the fleet seed — reruns and every shard
            # count dispatch identically.
            self.policy.bind(views, random.Random(
                derive_stream(config.seed, "fleet", "lb")))
            # LB health checker (``repro.cluster.health``); None keeps
            # both dispatch paths exactly as they were without health
            # support. Hooked mode: the driver notifies every dispatch,
            # so idle windows observe in O(1).
            monitor: Optional[HealthMonitor] = None
            if config.health is not None:
                monitor = HealthMonitor(views, config.health, hooked=True)
            arbiter: Optional[BudgetArbiter] = None
            if config.fleet_budget_w is not None:
                arbiter = BudgetArbiter(
                    backend.ladders, config.fleet_budget_w,
                    period_ns=config.budget_period_ns,
                    initial_busy=backend.busy())
            driver = None
            if config.timeline is not None:
                from repro.obs.timeline import TimelineDriver
                driver = TimelineDriver(
                    config.timeline, slo_ns=backend.slo_ns,
                    n_nodes=config.n_nodes, duration_ns=duration_ns,
                    window_ns=config.lb_wire_latency_ns,
                    fault_windows=fleet_fault_windows(config), fleet=True,
                    sink=self.timeline_sink)
            try:
                perf = drive_lockstep(config, duration_ns, times,
                                      sessions, self.policy, monitor,
                                      arbiter, backend, timeline=driver)
            except SanitizerError as err:
                if driver is not None:
                    driver.on_sanitizer_error(str(err))
                raise
            timeline = driver.finish() if driver is not None else None
            if timeline is not None and timeline.aborted_at_ns is not None:
                duration_ns = timeline.aborted_at_ns
            node_results = backend.finish(duration_ns, drain_ns,
                                          arbiter is not None, wall_start)
        finally:
            backend.close()
        perf.shards = self.n_shards
        perf.wall_s = time.perf_counter() - wall_start
        perf.shard_span_wall_s = list(backend.span_wall_s)
        return build_fleet_result(
            config, duration_ns, node_results,
            [view.dispatched for view in views], perf,
            arbiter.rebalances if arbiter else 0, monitor,
            timeline=timeline)


def run_fleet(config: FleetConfig, duration_ns: int,
              drain_ns: int = 100 * MS) -> FleetResult:
    """Run ``config`` for ``duration_ns`` (on ``config.shards`` shards)."""
    return FleetSystem(config).run(duration_ns, drain_ns=drain_ns)
