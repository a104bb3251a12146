"""Application-level requests."""

from __future__ import annotations

from typing import Optional


class Request:
    """One client request: its own data packet and its life-cycle
    timestamps (all ns).

    The client hands the request to the NIC, and the ring, socket,
    application and response path pass this same object; only bare ACKs
    travel as :class:`~repro.nic.packet.Packet`.

    End-to-end response latency (what the paper's SLOs constrain) is
    ``completed_ns - created_ns``: generation at the client through NIC,
    softirq, scheduling, service, and the response's wire trip back.
    """

    #: A request is a data packet, never a bare ACK.
    is_ack = False

    __slots__ = ("flow_id", "created_ns", "kind", "size_bytes",
                 "service_cycles", "response_bytes", "acked_response",
                 "delivered_ns", "started_ns", "completed_ns", "core_id",
                 "trace", "retries", "timeout_ev")

    def __init__(self, flow_id: int, created_ns: int, kind: str = "get",
                 size_bytes: int = 128, service_cycles: float = 0.0,
                 response_bytes: int = 128, acked_response: bool = False):
        self.flow_id = flow_id
        self.created_ns = created_ns
        self.kind = kind
        #: On-wire size of the request packet.
        self.size_bytes = size_bytes
        self.service_cycles = service_cycles
        #: Response payload size; large responses span several MSS-sized
        #: segments, each producing a Tx completion (and, for TCP
        #: workloads, an inbound ACK).
        self.response_bytes = response_bytes
        #: True for TCP workloads whose client ACKs every segment (nginx).
        self.acked_response = acked_response
        self.delivered_ns: Optional[int] = None   # softirq -> socket
        self.started_ns: Optional[int] = None     # app began service
        self.completed_ns: Optional[int] = None   # response at client
        self.core_id: Optional[int] = None
        #: Span-tracing context (``repro.obs.span.TraceContext``) when the
        #: request is sampled for end-to-end tracing; None otherwise.
        self.trace = None
        #: Retransmissions issued so far (clients with a RetryPolicy).
        self.retries = 0
        #: Pending client timeout event, when a RetryPolicy armed one.
        self.timeout_ev = None

    @property
    def latency_ns(self) -> Optional[int]:
        """End-to-end latency, or None if not yet completed."""
        if self.completed_ns is None:
            return None
        return self.completed_ns - self.created_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Request {self.kind} flow={self.flow_id} at {self.created_ns}>"
