"""Per-core socket receive queues.

The softirq handler delivers Rx packets into the socket queue of the
application worker pinned to the same core (the paper's setup: one
memcached/nginx thread per core, RSS steering each flow to its core).
Delivery wakes the worker if it is sleeping.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

if TYPE_CHECKING:
    from repro.workload.request import Request


class SocketQueue:
    """Bounded FIFO between softirq delivery and an application thread."""

    def __init__(self, core_id: int, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.core_id = core_id
        self.capacity = capacity
        self._queue: Deque[Request] = deque()
        #: The application thread to wake on delivery (set by the app).
        self.consumer = None
        self.delivered = 0
        self.dropped = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._queue)

    def deliver(self, request: Request) -> bool:
        """Softirq-side enqueue; wakes the consumer. False if dropped."""
        queue = self._queue
        depth = len(queue)
        if depth >= self.capacity:
            self.dropped += 1
            return False
        queue.append(request)
        self.delivered += 1
        if depth >= self.max_depth:
            self.max_depth = depth + 1
        consumer = self.consumer
        if consumer is not None:
            consumer.wake()
        return True

    def pop(self) -> Optional[Request]:
        """Application-side dequeue, or None when empty."""
        return self._queue.popleft() if self._queue else None

    def peek_newest(self) -> Optional[Request]:
        """The most recently delivered request, without dequeueing."""
        return self._queue[-1] if self._queue else None
