"""Wiring of the network stack over a processor and a NIC.

Creates, per core: a task scheduler and a socket queue, then hands the
RX side to the configured datapath backend (``repro.datapath``) — by
default the kernel NAPI path, which adds a ksoftirqd thread and a NAPI
context bound to the matching NIC queue (the testbed topology: one
queue per core, RSS steering flows evenly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.cpu.topology import Processor
from repro.netstack.napi import NapiConfig
from repro.netstack.socket import SocketQueue
from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.osched.scheduler import CoreScheduler
from repro.units import MS

if TYPE_CHECKING:
    from repro.workload.request import Request


@dataclass(frozen=True)
class StackConfig:
    """Network-stack tunables."""

    napi: NapiConfig = field(default_factory=NapiConfig)
    timeslice_ns: int = 1 * MS
    mss_bytes: int = 1448
    #: Gap between consecutive ACKs of one response arriving back
    #: (serialization on the wire plus client-side processing).
    ack_spacing_ns: int = 8_000

    def __post_init__(self) -> None:
        # An int: ACK trains push it onto the integer clock directly.
        if not isinstance(self.ack_spacing_ns, int) \
                or self.ack_spacing_ns < 0:
            raise ValueError("ack_spacing_ns must be a non-negative int")


class NetworkStack:
    """Per-core RX machinery plus the Tx path back to the client.

    The RX side (how packets leave the NIC queues) is pluggable: the
    ``datapath`` name selects an :class:`~repro.datapath.base.RxBackend`
    from :mod:`repro.datapath` — the kernel NAPI path by default, or a
    kernel-bypass backend (busy poll, Metronome sleep&wake). The stack
    itself owns what every backend shares: per-core task schedulers and
    socket queues, delivery stamping, and the Tx/ACK path.
    """

    def __init__(self, sim, processor: Processor, nic: MultiQueueNic,
                 config: Optional[StackConfig] = None,
                 datapath: str = "napi",
                 datapath_params: Optional[dict] = None,
                 rng=None):
        if nic.n_queues != processor.n_cores:
            raise ValueError("expect one NIC queue per core")
        self.sim = sim
        self.processor = processor
        self.nic = nic
        self.config = config or StackConfig()
        #: RandomStreams of the run (backends derive private streams);
        #: optional so bare unit-test stacks need not provide one.
        self.rng = rng
        #: Span tracing enabled (``sim.spans`` set); guards the
        #: per-packet boundary stamps.
        self.tracing = sim.spans is not None
        self._response_sink: Optional[Callable[[Request], None]] = None
        #: Optional synchronous variant ``response_sink_at(request, t_ns)``
        #: for passive receivers (pure recorders): the NIC then notifies
        #: at transmit time with the delivery timestamp instead of
        #: scheduling one wire-delay event per response. Paired with
        #: ``response_sink`` — rebinding the sink clears it (see setter).
        self.response_sink_at: Optional[Callable[[Request, int], None]] = None

        self.schedulers: List[CoreScheduler] = []
        self.sockets: List[SocketQueue] = []
        for core in processor.cores:
            sched = CoreScheduler(sim, core,
                                  timeslice_ns=self.config.timeslice_ns)
            self.schedulers.append(sched)
            self.sockets.append(SocketQueue(core.core_id))
        # Imported here: repro.datapath sits above the netstack layer
        # (its backends import this module's siblings).
        from repro.datapath.registry import make_rx_backend
        self.rx = make_rx_backend(datapath, self, **(datapath_params or {}))
        self.rx.build()
        if sim.trace is not None:
            self.rx.wire_trace_probes(sim.trace)

    @property
    def response_sink(self) -> Optional[Callable[[Request], None]]:
        """Called as ``response_sink(request)`` when the response to
        ``request`` reaches the client side of the wire; set by the
        system builder."""
        return self._response_sink

    @response_sink.setter
    def response_sink(self, sink: Optional[Callable[[Request], None]]) -> None:
        # A new receiver invalidates any synchronous fast-path variant
        # wired for the previous one (tests swap in their own clients).
        self._response_sink = sink
        self.response_sink_at = None

    def _deliver(self, request: Request, core_id: int) -> None:
        if self.tracing:
            ctx = request.trace
            if ctx is not None:
                ctx.sock_ns = self.sim.now
        self.sockets[core_id].deliver(request)

    def send_response(self, request, core_id: int) -> None:
        """Transmit a response for ``request`` from ``core_id``.

        The response is segmented at the MSS: every segment leaves a Tx
        completion for the poll loop, and — for TCP workloads
        (``request.acked_response``) — draws one inbound ACK per segment
        after a round trip, which the softirq must also process.
        """
        sink = self._response_sink
        if sink is None:
            raise RuntimeError("response_sink not wired")
        now = self.sim.now
        if self.tracing and request.trace is not None:
            request.trace.tx_ns = now
        n_segments = -(-int(request.response_bytes) // self.config.mss_bytes)
        if n_segments < 1:
            n_segments = 1
        nic = self.nic
        # Extra segments: Tx completions only; the last one carries the
        # response (the request itself) to the sink.
        if n_segments > 1:
            nic.queues[core_id].push_txc(n_segments - 1)
        nic.transmit(request, core_id, sink, sink_at=self.response_sink_at)
        if request.acked_response:
            # The whole train steers to one queue; hash the flow once.
            qid = nic.rss.queue_for(request.flow_id)
            self.sim.schedule(2 * nic.wire_latency_ns, self._ack_train,
                              request.flow_id, n_segments, qid)

    def _ack_train(self, flow_id: int, n_left: int, qid: int) -> None:
        """One chained event delivers a segment train's ACKs in sequence.

        ACKs arrive ``ack_spacing_ns`` apart, but only one heap entry per
        in-flight train exists at a time, so an nginx burst (~70 segments
        per response) does not flood the heap.
        """
        self._ack_arrives(flow_id, qid)
        if n_left > 1:
            sim = self.sim
            sim.queue.push(sim.now + self.config.ack_spacing_ns,
                           self._ack_train, (flow_id, n_left - 1, qid))

    def _ack_arrives(self, flow_id: int, qid: int) -> None:
        free = self.nic.free_acks
        if free:
            ack = free.pop()
            ack.flow_id = flow_id
        else:
            ack = Packet(flow_id, 64)
        self.nic.receive(ack, qid)

    def register_into(self, reg) -> None:
        """Register the per-core socket counters."""
        for cid, socket in enumerate(self.sockets):
            net = {"subsystem": "netstack", "core": str(cid)}
            reg.counter("socket_delivered_total", "Packets delivered upward",
                        read=lambda s=socket: s.delivered, **net)
            reg.counter("socket_dropped_total", "Socket-queue tail drops",
                        read=lambda s=socket: s.dropped, **net)
            reg.gauge("socket_max_depth", "Socket-queue high-water mark",
                      read=lambda s=socket: s.max_depth, **net)
