"""Bare TCP ACK packets.

A data packet is the :class:`~repro.workload.request.Request` itself;
only the ACKs a multi-segment response draws back travel as
:class:`Packet`. Both expose ``flow_id``, ``size_bytes`` and ``is_ack``.
"""

from __future__ import annotations


class Packet:
    """A bare TCP ACK: processed by softirq, never delivered to a
    socket, and cheaper per packet than a request.

    Attributes:
        flow_id: RSS hash input; packets of one flow land on one queue.
        size_bytes: on-wire size.
    """

    #: Tells an ACK apart from a request (``Request.is_ack`` is False).
    is_ack = True

    __slots__ = ("flow_id", "size_bytes")

    def __init__(self, flow_id: int, size_bytes: int):
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.flow_id = flow_id
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Packet ack flow={self.flow_id} {self.size_bytes}B>"
