"""Per-queue Rx ring and Tx-completion count."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.nic.packet import Packet

#: Freelist cap for consumed bare-ACK husks.
ACK_FREELIST_CAP = 512


class NicQueue:
    """One hardware queue: a bounded Rx ring plus pending Tx completions.

    Tx-completion descriptors carry nothing the poll loop reads, so the
    queue keeps only how many are waiting to be cleaned.

    The Rx ring drops packets when full (tail drop), as real NICs do under
    sustained overload; drops are counted for diagnostics.
    """

    def __init__(self, queue_id: int, rx_capacity: int = 1024):
        if rx_capacity <= 0:
            raise ValueError("rx capacity must be positive")
        self.queue_id = queue_id
        self.rx_capacity = rx_capacity
        self.rx: Deque[Packet] = deque()
        self.txc_pending = 0
        self.rx_enqueued = 0
        self.rx_dropped = 0
        self.txc_enqueued = 0

    @property
    def has_work(self) -> bool:
        """True when the poll loop would find anything to process."""
        return bool(self.rx) or self.txc_pending > 0

    @property
    def rx_depth(self) -> int:
        return len(self.rx)

    def push_rx(self, packet: Packet) -> bool:
        """Enqueue an Rx packet; returns False (and drops) when full."""
        if len(self.rx) >= self.rx_capacity:
            self.rx_dropped += 1
            return False
        self.rx.append(packet)
        self.rx_enqueued += 1
        return True

    def pop_rx(self) -> Optional[Packet]:
        """Dequeue the oldest Rx packet, or None."""
        return self.rx.popleft() if self.rx else None

    def push_txc(self, n: int = 1) -> None:
        """Post ``n`` Tx completions (unbounded)."""
        self.txc_pending += n
        self.txc_enqueued += n

    def take_txc(self, budget: int) -> int:
        """Clean up to ``budget`` pending Tx completions; returns how many."""
        n = min(self.txc_pending, budget)
        self.txc_pending -= n
        return n


def grab_burst(queue: NicQueue, free_acks: list, budget: int,
               txc_cycles: float, ack_cycles: float,
               rx_cycles: float) -> Tuple[list, int, int, float]:
    """Dequeue up to ``budget`` items (Tx completions first, then Rx).

    The retrieval step every RX path shares (NAPI polls and the bypass
    backends' bursts): returns ``(data_packets, n_rx, n_items, cycles)``
    where ``n_rx`` counts every Rx item (the mode-accounting unit),
    ``n_items`` additionally counts cleaned Tx completions (the budget
    unit), and ``data_packets`` holds only the deliverable ones — bare
    ACKs cost less per packet, are consumed here, and their husks go
    back to the NIC's freelist. ``cycles`` excludes any fixed per-poll
    overhead (the caller adds it).
    """
    n = queue.take_txc(budget)
    cycles = n * txc_cycles
    pop_rx = queue.pop_rx
    data_packets: list = []
    append = data_packets.append
    n_rx = 0
    while n < budget:
        pkt = pop_rx()
        if pkt is None:
            break
        n += 1
        n_rx += 1
        if pkt.kind == "ack":
            cycles += ack_cycles
            if len(free_acks) < ACK_FREELIST_CAP:
                free_acks.append(pkt)
        else:
            cycles += rx_cycles
            append(pkt)
    return data_packets, n_rx, n, cycles
