"""The RX backend interface and shared helpers.

An :class:`RxBackend` owns everything between a NIC queue and the
per-core socket queues: how packets are discovered (interrupt, busy
poll, or timer wake), on which core the retrieval cycles are charged,
and under which *mode* each packet is accounted. The
:class:`~repro.netstack.stack.NetworkStack` builds exactly one backend
(chosen by ``ServerConfig.datapath``) and everything above the sockets
— application workers, the Tx path, governors — is backend-agnostic.

Mode sources: NMAP's Mode Transition Monitor is duck-typed against
NAPI's listener lists (``poll_listeners`` fired as ``(source,
n_packets, mode)``, ``irq_listeners`` as ``(source,)``). Every backend
exposes a per-core mode source with those lists so the NMAP governor
family runs unmodified on any datapath; bypass backends emit the
canonical :data:`~repro.netstack.napi.MODE_INTERRUPT` /
:data:`~repro.netstack.napi.MODE_POLLING` labels to listeners (the
monitor's contract) while binning packets under their own accounting
modes (:data:`MODE_BUSY_POLL`, :data:`MODE_INTERMITTENT`) for
telemetry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.netstack.napi import MODE_INTERRUPT, MODE_POLLING

#: Accounting mode of packets retrieved by a dedicated busy-poll core.
MODE_BUSY_POLL = "busy-poll"
#: Accounting mode of packets retrieved by the first poll after a
#: Metronome timer wake (the follow-up drain batches bin as "polling").
MODE_INTERMITTENT = "intermittent"

#: Column order of the per-mode packet counters in the windowed
#: timeline (``repro.obs.timeline.NODE_SERIES`` carries one column per
#: entry, prefixed ``pkts_``).
TIMELINE_MODES = (MODE_INTERRUPT, MODE_POLLING, MODE_BUSY_POLL,
                  MODE_INTERMITTENT)


def stamp_poll_grab(sim_now: int, rx_packets: list) -> None:
    """Record the rx-queue -> poll-batch boundary on sampled requests."""
    for pkt in rx_packets:
        request = pkt.request
        if request is not None:
            ctx = request.trace
            if ctx is not None:
                ctx.poll_ns = sim_now
                ctx.via_ksoftirqd = False


class RxModeHub:
    """A bare mode source: the listener lists and nothing else.

    Used where a core has no RX machinery of its own (a busy-poll
    backend's worker cores) so mode consumers — the NMAP monitor, trace
    probes — can attach uniformly; its listeners simply never fire.
    """

    def __init__(self) -> None:
        #: Called as ``listener(source, n_packets, mode)`` per batch.
        self.poll_listeners: List = []
        #: Called as ``listener(source)`` per interrupt-analog event.
        self.irq_listeners: List = []

    def emit_poll(self, n_packets: int, mode: str) -> None:
        for listener in self.poll_listeners:
            listener(self, n_packets, mode)

    def emit_irq(self) -> None:
        for listener in self.irq_listeners:
            listener(self)


class RxBackend:
    """Base class of one RX datapath wiring over a built NetworkStack.

    Lifecycle: the stack constructs the backend with itself (schedulers
    and sockets already exist), then calls :meth:`build` to create the
    per-core machinery; the system calls :meth:`start` when the run's
    periodic machinery starts. Everything else is introspection.
    """

    #: Registry name (``ServerConfig.datapath`` value).
    name = "?"
    #: Accounting modes this backend bins Rx packets into.
    modes: Tuple[str, ...] = ()

    def __init__(self, stack):
        self.stack = stack
        #: Span tracing armed (guards per-packet stamps; set by the
        #: system builder for sampled runs only).
        self.tracing = False

    # -- lifecycle ------------------------------------------------------ #

    def build(self) -> None:
        """Create the per-core RX machinery (called once by the stack)."""
        raise NotImplementedError

    def start(self) -> None:
        """Arm run-time machinery (poll threads, retrieval timers)."""

    # -- wiring introspection ------------------------------------------- #

    def worker_core_ids(self) -> List[int]:
        """Cores that host an application worker (default: all)."""
        return [core.core_id for core in self.stack.processor.cores]

    def retrieval_core_for_queue(self, qid: int) -> int:
        """The core whose retrieval machinery drains NIC queue ``qid``.

        This is where a host-model P4 pipeline (``repro.p4`` with
        ``cost_model="core"``) charges per-stage cycles. The kernel and
        Metronome paths retrieve queue q on core q (the one-queue-per-
        core topology); pollmode overrides with its queue-owner map.
        """
        return qid

    def mode_source(self, core_id: int):
        """The per-core object exposing ``poll_listeners``/``irq_listeners``."""
        raise NotImplementedError

    def bind_governors(self, governors) -> None:
        """Late hook after power management exists (hybrid backends)."""

    def set_tracing(self, enabled: bool) -> None:
        self.tracing = enabled

    def wire_trace_probes(self, trace) -> None:
        """Record per-core packet/mode channels into ``trace``."""
        sim = self.stack.sim
        for core in self.stack.processor.cores:
            cid = core.core_id
            source = self.mode_source(cid)

            def on_poll(source_, n, mode, cid=cid):
                if n:
                    trace.record(f"core{cid}.pkts_{mode}", sim.now, n)
            source.poll_listeners.append(on_poll)

    # -- accounting ----------------------------------------------------- #

    def mode_counts(self) -> Dict[str, int]:
        """Total Rx packets per accounting mode (``self.modes`` keys)."""
        raise NotImplementedError

    def per_core_mode_counts(self) -> Dict[int, Dict[str, int]]:
        """Per-core breakdown of :meth:`mode_counts`."""
        raise NotImplementedError

    def poll_loops(self) -> int:
        """Completed poll/retrieval batches (all cores)."""
        return 0

    def sleep_wakes(self) -> int:
        """Timer-driven retrieval wakes (Metronome-family backends)."""
        return 0

    def ksoftirqd_wakeups(self) -> int:
        """Legacy aggregate (only the NAPI backend has ksoftirqd)."""
        return 0

    def timeline_counts(self) -> Tuple[int, ...]:
        """Cumulative ``(pkts per TIMELINE_MODES..., poll_loops,
        sleep_wakes)`` — the windowed timeline differentiates these."""
        counts = self.mode_counts()
        return (tuple(counts.get(mode, 0) for mode in TIMELINE_MODES)
                + (self.poll_loops(), self.sleep_wakes()))

    def register_into(self, reg) -> None:
        """Expose backend counters as telemetry instruments."""
        self._register_datapath_counters(reg)

    def _register_datapath_counters(self, reg) -> None:
        """The generic per-backend mode counters every datapath emits."""
        for cid, counts in sorted(self.per_core_mode_counts().items()):
            for mode in self.modes:
                reg.counter("datapath_pkts_total",
                            "Rx packets by datapath backend and mode",
                            subsystem="datapath", backend=self.name,
                            core=str(cid), mode=mode).inc(
                                counts.get(mode, 0))


def check_bypass_params(burst_size: int, min_sleep_ns: Optional[int] = None,
                        max_sleep_ns: Optional[int] = None) -> None:
    """Shared validation of bypass-backend tunables."""
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    if min_sleep_ns is not None and min_sleep_ns <= 0:
        raise ValueError("min_sleep_ns must be positive")
    if (min_sleep_ns is not None and max_sleep_ns is not None
            and max_sleep_ns < min_sleep_ns):
        raise ValueError("max_sleep_ns must be >= min_sleep_ns")
