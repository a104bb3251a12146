"""Network packets."""

from __future__ import annotations

import itertools

_packet_ids = itertools.count()


class Packet:
    """A network packet carrying (part of) a request or response.

    Attributes:
        packet_id: unique id.
        flow_id: RSS hash input; packets of one flow land on one queue.
        size_bytes: on-wire size.
        created_ns: time the packet was created at its source.
        request: the application-level request this packet belongs to
            (``repro.workload.request.Request``), or None for raw traffic.
        kind: ``"data"`` (carries a request/response payload) or ``"ack"``
            (a bare TCP ACK — processed by softirq, never delivered to a
            socket, and cheaper per packet).
    """

    KIND_DATA = "data"
    KIND_ACK = "ack"

    __slots__ = ("packet_id", "flow_id", "size_bytes", "created_ns",
                 "request", "kind")

    def __init__(self, flow_id: int, size_bytes: int, created_ns: int,
                 request=None, kind: str = KIND_DATA):
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        if kind not in (self.KIND_DATA, self.KIND_ACK):
            raise ValueError(f"unknown packet kind {kind!r}")
        self.packet_id = next(_packet_ids)
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.created_ns = created_ns
        self.request = request
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Packet {self.packet_id} flow={self.flow_id} {self.size_bytes}B>"
