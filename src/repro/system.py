"""System facade: build and run a complete server under one config.

:class:`ServerConfig` names everything the paper's testbed fixes (app,
load level, core count, governors, thresholds); :class:`ServerSystem`
assembles the simulator, processor, NIC, network stack, application
workers, client, and power management, runs the experiment, and returns a
:class:`RunResult` with latencies, energy, and traces.

This is the main public API::

    from repro import ServerConfig, ServerSystem

    result = ServerSystem(ServerConfig(app="memcached", load_level="high",
                                       freq_governor="nmap")).run(300 * MS)
    print(result.latency_stats().describe())
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro._lazy import lookup
from repro.apps.base import AppWorkerThread
from repro.apps.registry import APPLICATIONS, make_app
from repro.core.nmap import NmapGovernor, NmapThresholds
from repro.cpu.power import PowerModel
from repro.cpu.profiles import PROCESSOR_PROFILES
from repro.cpu.topology import Processor
from repro.datapath.registry import RX_BACKENDS
from repro.governors.registry import (FREQ_GOVERNORS, IDLE_GOVERNORS,
                                      make_freq_governor, make_idle_governor)
from repro.metrics.energy import EnergySummary
from repro.nic.nic import MultiQueueNic
from repro.netstack.napi import MODE_POLLING
from repro.netstack.stack import NetworkStack, StackConfig
from repro.obs.registry import TelemetryRegistry
from repro.sim.perf import PerfSnapshot
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder
from repro.units import MS, S
from repro.workload.client import OpenLoopClient
from repro.workload.profiles import levels_for
from repro.workload.shapes import LoadShape, ScaledLoad

if TYPE_CHECKING:
    # Annotation-only names: each module is imported where it is used.
    from repro.faults.plan import FaultPlan
    from repro.metrics.latency import LatencyStats
    from repro.metrics.slo import SloResult
    from repro.obs.span import SpanLog
    from repro.obs.timeline import TimelineConfig, TimelineResult
    from repro.p4.program import PipelineProgram
    from repro.workload.retry import RetryPolicy

#: Governor names handled by the system builder beyond the plain cpufreq
#: governors.
MANAGED_GOVERNORS = ("nmap", "nmap-simpl", "nmap-adaptive", "ncap",
                     "ncap-menu", "parties", "per-request-dvfs",
                     "per-request-dvfs-ideal")

#: Fallback NMAP thresholds per application, measured once with
#: repro.core.profiling.profile_thresholds at the high (SLO-setting) load.
#: Experiments normally profile explicitly; these serve quickstarts.
DEFAULT_NMAP_THRESHOLDS: Dict[str, NmapThresholds] = {
    "memcached": NmapThresholds(ni_th=20.0, cu_th=1.19),
    "nginx": NmapThresholds(ni_th=15.0, cu_th=0.74),
}

#: NCAP boost thresholds (aggregate RPS per core), tuned as the paper
#: tunes its software NCAP: to satisfy the SLO at the high load.
DEFAULT_NCAP_THRESHOLD_RPS_PER_CORE: Dict[str, float] = {
    "memcached": 16_000.0,
    "nginx": 8_000.0,
}


@dataclass
class ServerConfig:
    """Everything needed to build one server experiment."""

    app: str = "memcached"
    app_params: dict = field(default_factory=dict)
    load_level: str = "high"
    load_shape: Optional[LoadShape] = None  # overrides load_level if set
    n_cores: int = 2
    processor: str = "Gold-6134"
    dvfs_domain: str = "per-core"
    freq_governor: str = "ondemand"
    freq_governor_params: dict = field(default_factory=dict)
    idle_governor: str = "menu"
    idle_governor_params: dict = field(default_factory=dict)
    nmap_thresholds: Optional[NmapThresholds] = None
    ncap_threshold_rps: Optional[float] = None
    stack: StackConfig = field(default_factory=StackConfig)
    power_model_params: dict = field(default_factory=dict)
    wire_latency_ns: int = 5_000
    itr_gap_ns: int = 10_000  # NIC interrupt moderation (82599: 10 µs)
    #: None = fresh flow per request (uniform RSS spread); a small number
    #: concentrates flows onto few queues (per-core load imbalance).
    n_flows: Optional[int] = None
    seed: int = 0
    #: Explicit seed for the client's arrival stream; None derives it
    #: from ``seed`` as always. Set by the fleet parity harness so a
    #: standalone run draws the exact arrival schedule a fleet's load
    #: balancer would have dispatched to this node.
    arrival_seed: Optional[int] = None
    #: Record ``TraceRecorder`` channels (P-states, C-states, NAPI modes,
    #: faults): the run's recorder becomes ``sim.trace``, else None.
    trace: bool = False
    #: Fraction of requests carrying an end-to-end span TraceContext
    #: (``repro.obs.span``). 0 disables span tracing entirely — the hot
    #: path then pays nothing and results are bit-identical to untraced
    #: runs. Sampling is deterministic in (rate, seed, request index).
    trace_sample_rate: float = 0.0
    #: Deterministic fault schedule (``repro.faults``; docs/FAULTS.md).
    #: None or an empty plan builds no injector at all — the run is
    #: bit-identical to one without fault support.
    fault_plan: Optional[FaultPlan] = None
    #: Client timeout/retry policy (``repro.workload.retry``). None arms
    #: no timers and keeps the event stream bit-identical to a
    #: retry-less client.
    retry: Optional[RetryPolicy] = None
    #: Windowed time-series sampling + assertion monitors + flight
    #: recorder (``repro.obs.timeline``; docs/OBSERVABILITY.md). None
    #: samples nothing and the run is bit-identical to one on a build
    #: without timeline support.
    timeline: Optional[TimelineConfig] = None
    #: RX datapath backend: "napi" (the kernel path, default), "poll"
    #: (DPDK-style dedicated busy-poll cores), "metronome" (sleep&wake
    #: intermittent retrieval), or "nmap-hybrid" (Metronome driven by
    #: the NMAP mode signal). See ``repro.datapath`` / docs/DATAPATH.md.
    datapath: str = "napi"
    #: Keyword parameters for the backend constructor (burst sizes,
    #: sleep bounds, poll-core count, ...; backend-specific).
    datapath_params: dict = field(default_factory=dict)
    #: Match-action RX pipeline program (``repro.p4``; docs/DATAPATH.md).
    #: None or an empty program builds no engine at all and the run is
    #: bit-identical to one without pipeline support; a truthy identity
    #: program builds the engine but is still bit-identical (the
    #: zero-cost contract pinned by ``tests/p4/test_parity.py``).
    pipeline: Optional[PipelineProgram] = None
    #: Per-session traffic weights for the client (skewed session
    #: popularity): ``flow_weights[i]`` is the relative share of flow
    #: ``i``, expanded into a deterministic smooth weighted-round-robin
    #: pattern. Requires ``n_flows == len(flow_weights)``. None keeps
    #: the exact legacy round-robin flow assignment.
    flow_weights: Optional[tuple] = None

    def with_overrides(self, **kwargs) -> "ServerConfig":
        """A copy with fields replaced (convenience for sweeps)."""
        return replace(self, **kwargs)


def validate_server_config(config: ServerConfig) -> None:
    """Reject unknown names and out-of-range values before anything is
    built (``ValueError``). It imports nothing: each name is checked
    against its registry's keys, so a fleet can check every node's
    config before it starts a node or a shard."""
    if not 0.0 <= config.trace_sample_rate <= 1.0:
        raise ValueError(f"trace_sample_rate must be in [0, 1], got "
                         f"{config.trace_sample_rate}")
    if config.processor not in PROCESSOR_PROFILES:
        raise ValueError(f"unknown processor {config.processor!r}; "
                         f"known: {sorted(PROCESSOR_PROFILES)}")
    lookup(RX_BACKENDS, config.datapath, "datapath")
    lookup(APPLICATIONS, config.app, "application")
    if config.load_shape is None:
        levels_for(config.app).level(config.load_level)
    if config.idle_governor != "nmap-sleep":
        lookup(IDLE_GOVERNORS, config.idle_governor, "idle governor")
    name = config.freq_governor
    if name not in FREQ_GOVERNORS and name not in MANAGED_GOVERNORS:
        raise ValueError(
            f"unknown frequency governor {name!r}; known: "
            f"{sorted(FREQ_GOVERNORS) + list(MANAGED_GOVERNORS)}")
    if name == "nmap-simpl" and config.datapath != "napi":
        raise ValueError("freq_governor='nmap-simpl' reads ksoftirqd wake "
                         "signals; it requires datapath='napi'")
    if name not in ("nmap", "nmap-adaptive"):
        if config.idle_governor == "nmap-sleep":
            raise ValueError("idle_governor='nmap-sleep' requires an "
                             "NMAP-family frequency governor "
                             "(nmap / nmap-adaptive)")
        if config.datapath == "nmap-hybrid":
            raise ValueError("datapath='nmap-hybrid' couples the sleep "
                             "interval to the NMAP mode signal; it "
                             "requires an NMAP-family frequency governor "
                             "(nmap / nmap-adaptive)")


@dataclass
class RunResult:
    """Outcome of one :meth:`ServerSystem.run`."""

    config: ServerConfig
    duration_ns: int
    sent: int
    completed: int
    dropped: int
    latencies_ns: np.ndarray
    completion_times_ns: np.ndarray
    energy: EnergySummary
    slo_ns: int
    trace: TraceRecorder
    #: Event-kernel counters of the run (events/sec, heap peak, cancel
    #: ratio).
    perf: PerfSnapshot
    #: Telemetry registry of the run: every component's counters, frozen
    #: at run end, plus the run-level gauges and histograms
    #: (``repro.obs.registry``). The one store of the run's counters;
    #: the properties below read it.
    telemetry: TelemetryRegistry
    #: Span log of the sampled requests (``repro.obs.span.SpanLog``);
    #: None when ``config.trace_sample_rate`` is 0.
    spans: Optional[SpanLog] = None
    #: Windowed time-series of the run (``repro.obs.timeline``); None
    #: when ``config.timeline`` is unset.
    timeline: Optional[TimelineResult] = None

    def latency_stats(self) -> LatencyStats:
        """Percentile summary of completed-request latencies."""
        from repro.metrics.latency import LatencyStats
        return LatencyStats.from_sample(self.latencies_ns)

    def slo_result(self) -> SloResult:
        """P99-vs-SLO verdict."""
        from repro.metrics.slo import check_slo
        return check_slo(self.latencies_ns, self.slo_ns)

    @property
    def p99_ns(self) -> float:
        return self.slo_result().p99_ns

    @property
    def energy_j(self) -> float:
        return self.energy.package_j

    @property
    def datapath_pkts(self) -> Dict[str, int]:
        """Rx packets per datapath accounting mode: NAPI bins
        "interrupt"/"polling", busy-poll "busy-poll", Metronome
        "intermittent"/"polling"."""
        counts: Dict[str, int] = {}
        for name, labels, _, counter in self.telemetry.items():
            if name == "datapath_pkts_total":
                mode = labels["mode"]
                counts[mode] = counts.get(mode, 0) + counter.value
        return counts

    @property
    def poll_loops(self) -> int:
        """Completed poll/retrieval batches and empty polls, all cores."""
        return (self.telemetry.sum_of("datapath_poll_loops_total")
                + self.telemetry.sum_of("datapath_empty_polls_total"))

    @property
    def sleep_wakes(self) -> int:
        """Timer-driven retrieval wakes (Metronome-family backends)."""
        return self.telemetry.sum_of("datapath_sleep_wakes_total")

    @property
    def pkts_polling_mode(self) -> int:  # read only by simbench/run.py
        return self.datapath_pkts.get(MODE_POLLING, 0)

    @property
    def ksoftirqd_wakeups(self) -> int:  # read only by simbench/run.py
        return self.telemetry.sum_of("ksoftirqd_wakeups_total")


class ServerSystem:
    """A fully wired server + client, ready to run."""

    def __init__(self, config: ServerConfig):
        validate_server_config(config)
        self.config = config
        self.sim = Simulator()
        self.rng = RandomStreams(config.seed)
        #: The run's channel recorder; it stays empty unless
        #: ``config.trace`` hands it to the components as ``sim.trace``.
        self.trace = TraceRecorder()
        self.sim.trace = self.trace if config.trace else None
        self.spans: Optional[SpanLog] = None
        if config.trace_sample_rate > 0:
            from repro.obs.span import SpanLog
            self.spans = SpanLog(config.trace_sample_rate, seed=config.seed)
        # Set before any component is built: stamp sites bind it then.
        self.sim.spans = self.spans

        profile = PROCESSOR_PROFILES[config.processor]
        # Uncore power scales with the simulated core count; the per-core
        # envelope lives with the processor profiles so every system —
        # including heterogeneous fleet nodes — derives it from one place.
        power_params = dict(config.power_model_params)
        for key, value in profile.uncore_power_params(config.n_cores).items():
            power_params.setdefault(key, value)
        power_model = PowerModel(profile.pstate_table(), **power_params)
        self.processor = Processor(
            self.sim, profile=profile, n_cores=config.n_cores,
            dvfs_domain=config.dvfs_domain, power_model=power_model,
            rng_streams=self.rng)

        self.nic = MultiQueueNic(self.sim, n_queues=config.n_cores,
                                 wire_latency_ns=config.wire_latency_ns,
                                 itr_gap_ns=config.itr_gap_ns)
        self.stack = NetworkStack(self.sim, self.processor, self.nic,
                                  config=config.stack,
                                  datapath=config.datapath,
                                  datapath_params=config.datapath_params,
                                  rng=self.rng)
        #: The RX datapath backend (``repro.datapath``): how packets
        #: leave the NIC queues and on which cores that work is charged.
        self.datapath = self.stack.rx

        #: Match-action pipeline engine (``repro.p4``), built only for
        #: truthy programs: an absent/empty program constructs nothing
        #: and touches no receive path, keeping plain runs bit-identical.
        self.pipeline = None
        if config.pipeline is not None and config.pipeline:
            from repro.p4.engine import PipelineEngine
            self.pipeline = PipelineEngine(
                config.pipeline, self.nic, self.sim,
                processor=self.processor, backend=self.datapath)
            self.nic.pipeline = self.pipeline

        # Application: one worker thread pinned per core the datapath
        # leaves to the application (busy-poll backends reserve cores).
        self.app = make_app(config.app, self.rng.stream("app"),
                            **config.app_params)
        self.workers: List[AppWorkerThread] = []
        for cid in self.datapath.worker_core_ids():
            worker = AppWorkerThread(self.app, cid,
                                     self.stack.sockets[cid], self.stack)
            self.stack.schedulers[cid].add_thread(worker)
            self.workers.append(worker)

        # Workload client. Profiles are per-core rates; the load_shape
        # override, when given, is also interpreted per core.
        shape = config.load_shape
        if shape is None:
            shape = levels_for(config.app).level(config.load_level).shape()
        if config.n_cores != 1:
            shape = ScaledLoad(shape, config.n_cores)
        self.load_shape = shape
        client_rng = (np.random.default_rng(config.arrival_seed)
                      if config.arrival_seed is not None
                      else self.rng.numpy_stream("client"))
        self.client = OpenLoopClient(
            self.sim, self.nic, shape, client_rng,
            request_factory=self.app.request_factory(),
            wire_latency_ns=config.wire_latency_ns,
            n_flows=config.n_flows,
            flow_weights=config.flow_weights,
            retry=config.retry)
        self.stack.response_sink = self.client.on_response
        # The open-loop client is a pure recorder: let the NIC notify it
        # synchronously at transmit time (no per-response event).
        self.stack.response_sink_at = self.client.on_response_at

        # Idle governor (shared instance across cores). "nmap-sleep" is
        # the mode-aware extension: it needs the NMAP engines, so it is
        # wired after power management below.
        if config.idle_governor == "nmap-sleep":
            from repro.core.sleep_integration import ModeAwareIdleGovernor
            self.idle_governor = ModeAwareIdleGovernor(
                **config.idle_governor_params)
        else:
            self.idle_governor = make_idle_governor(
                config.idle_governor, **config.idle_governor_params)
        for core in self.processor.cores:
            core.idle_governor = self.idle_governor

        # Frequency governors / system power managers.
        self.freq_governors: List = []
        self.manager = None
        self._build_power_management()

        if config.idle_governor == "nmap-sleep":
            for cid, gov in enumerate(self.freq_governors):
                self.idle_governor.register_engine(cid, gov.engine)

        # Late backend hook: nmap-hybrid grabs the per-core decision
        # engines it couples the sleep interval to (no-op otherwise).
        self.datapath.bind_governors(self.freq_governors)

        #: Fault injector (``repro.faults``), built only for non-empty
        #: plans: an absent/empty plan schedules zero events and swaps
        #: zero methods, keeping healthy runs bit-identical.
        self.faults = None
        if config.fault_plan is not None and config.fault_plan.windows:
            from repro.faults.inject import FaultInjector
            self.faults = FaultInjector(self)

        #: Live-sample callback ``(t_ns, node_rows, fleet_row, events)``
        #: for timeline runs (the ``watch`` dashboard hooks in here).
        #: Runtime wiring, deliberately *not* a config field: sinks are
        #: unhashable and must never affect the cache key — or results.
        self.timeline_sink = None

        #: Every component registers its counters here once, as observed
        #: instruments; :meth:`_finalize_result` freezes them.
        self.telemetry = TelemetryRegistry()
        for owner in (self.client, self.faults, self.nic, self.pipeline,
                      self.datapath, self.stack, self.processor,
                      *self.workers, *self.freq_governors):
            if owner is not None:
                owner.register_into(self.telemetry)

    # ------------------------------------------------------------------ #

    def _build_power_management(self) -> None:
        cfg = self.config
        name = cfg.freq_governor
        params = dict(cfg.freq_governor_params)
        if name in FREQ_GOVERNORS:
            for cid in range(cfg.n_cores):
                self.freq_governors.append(make_freq_governor(
                    name, self.sim, self.processor, cid, **params))
        elif name == "nmap":
            thresholds = (cfg.nmap_thresholds
                          or DEFAULT_NMAP_THRESHOLDS[cfg.app])
            for cid in range(cfg.n_cores):
                self.freq_governors.append(NmapGovernor(
                    self.sim, self.processor, cid,
                    self.datapath.mode_source(cid), thresholds, **params))
        elif name == "nmap-adaptive":
            from repro.core.adaptive import AdaptiveNmapGovernor
            thresholds = (cfg.nmap_thresholds
                          or DEFAULT_NMAP_THRESHOLDS[cfg.app])
            for cid in range(cfg.n_cores):
                self.freq_governors.append(AdaptiveNmapGovernor(
                    self.sim, self.processor, cid,
                    self.datapath.mode_source(cid), thresholds, **params))
        elif name in ("per-request-dvfs", "per-request-dvfs-ideal"):
            from repro.baselines.per_request import PerRequestDvfsManager
            self.manager = PerRequestDvfsManager(
                self.sim, self.processor, self.stack,
                slo_ns=self.app.slo_ns,
                ideal_transitions=name.endswith("ideal"), **params)
        elif name == "nmap-simpl":
            from repro.core.nmap_simpl import NmapSimplGovernor
            for cid in range(cfg.n_cores):
                self.freq_governors.append(NmapSimplGovernor(
                    self.sim, self.processor, cid,
                    self.datapath.ksoftirqds[cid], **params))
        elif name in ("ncap", "ncap-menu"):
            from repro.baselines.ncap import NcapManager
            from repro.governors.ondemand import OndemandGovernor
            threshold = cfg.ncap_threshold_rps
            if threshold is None:
                threshold = (DEFAULT_NCAP_THRESHOLD_RPS_PER_CORE[cfg.app]
                             * cfg.n_cores)
            fallbacks = [OndemandGovernor(self.sim, self.processor, cid)
                         for cid in range(cfg.n_cores)]
            self.manager = NcapManager(
                self.sim, self.processor, self.nic, fallbacks,
                threshold_rps=threshold,
                disable_sleep_in_boost=(name == "ncap"), **params)
        elif name == "parties":
            from repro.baselines.parties import PartiesManager
            self.manager = PartiesManager(
                self.sim, self.processor, self.client,
                slo_ns=self.app.slo_ns, **params)

    # ------------------------------------------------------------------ #

    # The run sequence is split into phases so an embedding co-simulator
    # (``repro.cluster.FleetSystem``) can interleave its own lockstep
    # windows between workload start and finalization while keeping the
    # standalone event ordering — and hence results — bit-identical.

    def _start_power(self) -> None:
        """Start the periodic power-management machinery."""
        # The datapath's run-time machinery (poll threads, retrieval
        # timers) starts with it; no-op for the interrupt-driven path.
        # It deliberately has no stop: retrieval must keep running
        # through the drain window or in-flight requests never finish.
        self.datapath.start()
        for gov in self.freq_governors:
            gov.start()
        if self.manager is not None:
            self.manager.start()

    def _measure_energy(self, duration_ns: int) -> EnergySummary:
        """Flush accounting and read energy over exactly [0, duration]."""
        self.processor.finalize()
        summary = EnergySummary(
            package_j=self.processor.energy.total_energy_j(duration_ns),
            cores_j=self.processor.energy.cores_energy_j(duration_ns),
            duration_s=duration_ns / S)
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            # Read-only conservation check: the meters are already
            # integrated to duration_ns, so this perturbs nothing.
            sanitizer.check_energy(self.processor.energy,
                                   summary.package_j, summary.cores_j)
        return summary

    def _stop_power(self) -> None:
        """Stop periodic machinery (before the drain window)."""
        for gov in self.freq_governors:
            gov.stop()
        if self.manager is not None:
            self.manager.stop()

    def _finalize_result(self, duration_ns: int, drain_ns: int,
                         energy: EnergySummary, wall_start: float,
                         timeline: Optional[TimelineResult] = None
                         ) -> RunResult:
        """Trim the drain window, freeze counters, build the result."""
        self.processor.finalize()
        self.client.finalize(duration_ns + drain_ns)
        perf = self.sim.perf_snapshot(
            wall_s=time.perf_counter() - wall_start)
        latencies_ns = self.client.latencies_ns()
        telemetry = self.telemetry
        telemetry.freeze()  # then the push-style run-level instruments
        perf.register_into(telemetry)
        telemetry.histogram("request_latency_ns",
                            "End-to-end request latency",
                            subsystem="workload").observe_many(latencies_ns)
        if self.spans is not None:
            self.spans.register_into(telemetry)
        if timeline is not None:
            timeline.register_into(telemetry)

        return RunResult(
            config=self.config,
            duration_ns=duration_ns,
            sent=self.client.sent,
            completed=self.client.completed,
            dropped=self.client.dropped,
            latencies_ns=latencies_ns,
            completion_times_ns=self.client.completion_times_ns(),
            energy=energy,
            slo_ns=self.app.slo_ns,
            trace=self.trace,
            perf=perf,
            telemetry=telemetry,
            spans=self.spans,
            timeline=timeline)

    def _run_sampled(self, duration_ns: int) -> TimelineResult:
        """Advance to ``duration_ns`` in timeline sample windows.

        Splitting ``run_until`` at sample barriers is exact (barrier
        invariance of the event kernel) and the sampler only reads the
        components' counter exports and non-mutating projections, so a
        sampled run stays bit-identical to an unsampled one — the
        determinism contract tests enforce.
        """
        from repro.analysis.sanitize import SanitizerError
        from repro.obs.timeline import (TimelineDriver, TimelineSampler,
                                        recent_spans)

        tl_config = self.config.timeline
        fault_windows = []
        if self.config.fault_plan is not None:
            fault_windows = [(w.start_ns, w.end_ns, w.kind, 0)
                             for w in self.config.fault_plan.windows]
        span_source = None
        if self.spans is not None:
            spans = self.spans
            span_source = lambda since_ns: recent_spans(spans, since_ns)
        driver = TimelineDriver(
            tl_config, slo_ns=self.app.slo_ns, n_nodes=1,
            duration_ns=duration_ns, fault_windows=fault_windows,
            sink=self.timeline_sink, span_source=span_source)
        sampler = TimelineSampler(self)
        t = 0
        try:
            while t < duration_ns:
                t = min(driver.next_grid_ns(t), duration_ns)
                self.sim.run_until(t)
                if driver.on_sample(t, [sampler.sample(t)]):
                    break
        except SanitizerError as err:
            driver.on_sanitizer_error(str(err))
            raise
        return driver.finish()

    def run(self, duration_ns: int, drain_ns: int = 100 * MS) -> RunResult:
        """Run the workload for ``duration_ns``, then drain in-flight work.

        Energy is measured over exactly [0, duration]; latencies include
        requests that complete during the drain window. An ``abort=True``
        monitor trip truncates the measurement window at the tripping
        sample (already-scheduled arrivals still play out in the drain).
        """
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        wall_start = time.perf_counter()
        self.client.start(duration_ns)
        self._start_power()

        timeline = None
        if self.config.timeline is not None:
            timeline = self._run_sampled(duration_ns)
            if timeline.aborted_at_ns is not None:
                duration_ns = timeline.aborted_at_ns
        else:
            self.sim.run_until(duration_ns)
        energy = self._measure_energy(duration_ns)

        # Stop periodic machinery, then let in-flight requests finish.
        self._stop_power()
        self.sim.run_until(duration_ns + drain_ns)
        return self._finalize_result(duration_ns, drain_ns, energy,
                                     wall_start, timeline=timeline)


def run_server(config: ServerConfig, duration_ns: int) -> RunResult:
    """Build a :class:`ServerSystem` from ``config`` and run it."""
    return ServerSystem(config).run(duration_ns)
