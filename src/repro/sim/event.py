"""Event and event-queue primitives.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so same-timestamp events fire in scheduling order
(deterministic replay). Cancellation is lazy: a cancelled event stays in the
heap and is discarded on pop, which keeps cancel O(1).

Fast-path design (the simulator is the hot loop of every experiment):

* Heap entries are plain ``(time, seq, event)`` tuples, so heap sift
  compares run entirely in C — no Python-level ``__lt__`` calls.
  ``seq`` is unique, so comparison never reaches the event object.
* The run loop (``Simulator.run_until``) drains cancelled heads and
  pops the next due event in a single heap scan, inlined rather than
  paid as a ``peek_time()`` + ``pop()`` double scan.
* :meth:`EventQueue.push` builds each event with ``object.__new__`` and
  direct slot stores, so scheduling pays no ``__init__`` frame. Events
  are never reused: a fired one is freed once nothing references it, so
  a handle a caller keeps always refers to its own event.
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.perf import PerfSnapshot

_new = object.__new__


class Event:
    """A scheduled callback, built only by :meth:`EventQueue.push`.

    Attributes:
        time: absolute simulation time (ns) the event fires at.
        seq: tie-breaker; preserves FIFO order among same-time events.
        fn: the callback; called with ``*args`` when the event fires.
        cancelled: set by :meth:`cancel`; cancelled events never fire.
        _queue: the owning queue while the event is pending; None once
            popped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once.

        This is the single cancellation implementation:
        :meth:`EventQueue.cancel` delegates here, so live-event accounting
        (``len(queue)``) stays correct no matter which handle callers use.
        An event that already fired (popped) is no longer owned by the
        queue and cancelling it does not disturb the live count.
        """
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                queue.cancelled_total += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} seq={self.seq} {name} {state}>"


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, seq)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0
        # Lifetime perf counters (see repro.sim.perf). scheduled_total is
        # the seq counter itself (every push consumes exactly one seq).
        self.cancelled_total = 0
        self.heap_peak = 0

    @property
    def scheduled_total(self) -> int:
        """Lifetime number of events pushed."""
        return self._seq

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def push(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` and return the event."""
        seq = self._seq
        self._seq = seq + 1
        ev = _new(Event)
        ev.time = time
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        ev._queue = self
        self._live += 1
        heap = self._heap
        _heappush(heap, (time, seq, ev))
        n = len(heap)
        if n > self.heap_peak:
            self.heap_peak = n
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel an event previously returned by :meth:`push`."""
        ev.cancel()

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled()
        heap = self._heap
        return heap[0][0] if heap else None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        self._live -= 1
        ev = heapq.heappop(self._heap)[2]
        ev._queue = None
        return ev

    def perf_snapshot(self, events_fired: int = 0,
                      wall_s: float = 0.0) -> PerfSnapshot:
        """Current counter values as a :class:`PerfSnapshot`."""
        return PerfSnapshot(
            events_scheduled=self.scheduled_total,
            events_fired=events_fired,
            events_cancelled=self.cancelled_total,
            heap_peak=self.heap_peak,
            wall_s=wall_s)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            ev = heapq.heappop(heap)[2]
            ev._queue = None
