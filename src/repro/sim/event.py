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
* Fired and dropped events are recycled through a freelist
  (:meth:`EventQueue.recycle`) when provably unreferenced, killing the
  per-packet allocation churn of event-heavy workloads. Safety is
  enforced with a refcount guard: an event is only reused when the queue
  holds the sole reference, so a caller-retained handle (e.g. a pending
  timer) can never alias a recycled event.
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.perf import PerfSnapshot

#: Upper bound on freelist length; beyond this, events are left to the GC.
_FREELIST_MAX = 4096


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time (ns) the event fires at.
        seq: tie-breaker; preserves FIFO order among same-time events.
        fn: the callback; called with ``*args`` when the event fires.
        cancelled: set by :meth:`cancel`; cancelled events never fire.
        gen: incarnation counter — bumped each time the object is reused
            from the freelist, so a retained stale handle is detectable
            (``repro.analysis.sanitize`` validates it against the
            generation captured at schedule time).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "gen", "_queue")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.gen = 0
        #: The owning queue while the event is pending; None once popped.
        self._queue: Optional["EventQueue"] = None

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

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

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
        self._free: List[Event] = []
        # Lifetime perf counters (see repro.sim.perf). scheduled_total is
        # the seq counter itself (every push consumes exactly one seq).
        self.cancelled_total = 0
        self.recycled_total = 0
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
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
            ev.gen += 1  # new incarnation: stale handles become detectable
            ev._queue = self
            self.recycled_total += 1
        else:
            ev = Event(time, seq, fn, args)
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

    def recycle(self, ev: Event) -> None:
        """Return a fired event to the freelist if provably unreferenced.

        Callers (the simulator run loop) hand back events after firing
        them. Refcount 3 = caller's local + our parameter + getrefcount's
        argument; anything higher means some object still holds the
        handle (a pending-timer field, a test) and the event must not be
        reused, or a later ``cancel()`` through the stale handle would
        hit an unrelated event.
        """
        if getrefcount(ev) == 3 and len(self._free) < _FREELIST_MAX:
            ev.fn = None
            ev.args = ()
            self._free.append(ev)

    def perf_snapshot(self, events_fired: int = 0,
                      wall_s: float = 0.0) -> PerfSnapshot:
        """Current counter values as a :class:`PerfSnapshot`."""
        return PerfSnapshot(
            events_scheduled=self.scheduled_total,
            events_fired=events_fired,
            events_cancelled=self.cancelled_total,
            events_recycled=self.recycled_total,
            heap_peak=self.heap_peak,
            wall_s=wall_s)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            ev = heapq.heappop(heap)[2]
            ev._queue = None
