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

from typing import List, Optional

from repro.netstack.napi import MODE_INTERRUPT, MODE_POLLING

#: Accounting mode of packets retrieved by a dedicated busy-poll core.
MODE_BUSY_POLL = "busy-poll"
#: Accounting mode of packets retrieved by the first poll after a
#: Metronome timer wake (the follow-up drain batches bin as "polling").
MODE_INTERMITTENT = "intermittent"


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


class RxBackend:
    """Base class of one RX datapath wiring over a built NetworkStack.

    Lifecycle: the stack constructs the backend with itself (schedulers
    and sockets already exist), then calls :meth:`build` to create the
    per-core machinery; the system calls :meth:`start` when the run's
    periodic machinery starts. Everything else is introspection.
    """

    #: Registry name (``ServerConfig.datapath`` value).
    name = "?"

    def __init__(self, stack):
        self.stack = stack
        #: Span tracing armed (guards per-packet stamps; ``sim.spans``
        #: is set for sampled runs only).
        self.tracing = stack.sim.spans is not None

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

    def wire_trace_probes(self, trace) -> None:
        """Record per-core packet/mode channels into ``trace``.

        Called by the stack right after :meth:`build` on traced runs
        (``sim.trace`` set); untraced runs attach no probe.
        """
        sim = self.stack.sim
        for core in self.stack.processor.cores:
            cid = core.core_id
            channels = {mode: f"core{cid}.pkts_{mode}"
                        for mode in (MODE_INTERRUPT, MODE_POLLING)}

            def on_poll(source_, n, mode, channels=channels):
                if n:
                    trace.record(channels[mode], sim.now, n)
            self.mode_source(cid).poll_listeners.append(on_poll)

    # -- accounting ----------------------------------------------------- #

    def register_into(self, reg) -> None:
        """Register backend counters as observed instruments, including
        ``datapath_pkts_total`` per core and accounting mode."""
        raise NotImplementedError

    def _counter(self, reg, name: str, help_text: str, core_id: int,
                 read, **labels) -> None:
        """A ``subsystem="datapath"`` counter of this backend and core."""
        reg.counter(name, help_text, read=read, subsystem="datapath",
                    backend=self.name, core=str(core_id), **labels)

    def _count_pkts(self, reg, core_id: int, mode: str, read) -> None:
        self._counter(reg, "datapath_pkts_total",
                      "Rx packets by datapath backend and mode", core_id,
                      read, mode=mode)


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
