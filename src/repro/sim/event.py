"""Event and event-queue primitives.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so same-timestamp events fire in scheduling order
(deterministic replay). Cancellation is lazy, which keeps cancel O(1): a
cancelled event stays in the heap until it is discarded on pop or purged
by a compaction.

Fast-path design (the simulator is the hot loop of every experiment):

* Heap entries are plain ``(time, seq, event)`` tuples, so heap sift
  compares run entirely in C — no Python-level ``__lt__`` calls.
  ``seq`` is unique, so comparison never reaches the event object.
  The entry is the only place time and seq live: an :class:`Event`
  holds just what fires it (callback, arguments, cancelled flag).
* The run loop (``Simulator.run_until``) drains cancelled heads and
  pops the next due event in a single heap scan, inlined rather than
  paid as a ``peek_time()`` + ``pop()`` double scan.
* :meth:`EventQueue.push` builds each event with ``object.__new__`` and
  direct slot stores, so scheduling pays no ``__init__`` frame. Events
  are never reused: a fired one is freed once nothing references it, so
  a handle a caller keeps always refers to its own event.
* Push, cancel and the run loop keep no live count: pops and
  compactions tally the cancelled entries they drop, and ``len(queue)``
  and :attr:`EventQueue.cancelled_total` add one heap scan to that tally.
* Most pushed timers are cancelled long before their deadline (idle
  re-selection, slice timers), so :meth:`EventQueue.push` compacts: once
  the heap grows past twice the live count the last compaction left
  (floor :data:`COMPACT_FLOOR`), it removes the cancelled entries in
  place and re-heapifies. No live entry's ``(time, seq)`` changes, so
  what fires and when is unchanged; every push and pop sifts through a
  heap of about the live size. The list is never rebound: the run loops
  hold it as a local.
"""

from __future__ import annotations

from heapq import (heapify as _heapify, heappop as _heappop,
                   heappush as _heappush)
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.perf import PerfSnapshot

_new = object.__new__

#: Heap length below which :meth:`EventQueue.push` never compacts.
COMPACT_FLOOR = 64


class Event:
    """A scheduled callback, built only by :meth:`EventQueue.push`.

    Attributes:
        fn: the callback; called with ``*args`` when the event fires.
        args: the callback's positional arguments.
        cancelled: set by :meth:`cancel`; cancelled events never fire.
    """

    __slots__ = ("fn", "args", "cancelled")

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once,
        and a no-op on an event that already fired: counts are derived
        from the heap, which no longer holds a fired event."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event {name} {state}>"


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, seq)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        #: Cancelled entries discarded off the heap head or purged by a
        #: compaction so far (the run loop adds its own tally when it
        #: returns).
        self.cancelled_popped = 0
        #: Longest the heap has been after a push (and its compaction).
        self.heap_peak = 0
        #: Heap length past which a push compacts.
        self._compact_at = COMPACT_FLOOR
        #: ``min(heap_peak, _compact_at)``: a push that leaves the heap
        #: no longer than this has nothing to record or compact.
        self._high = 0

    @property
    def scheduled_total(self) -> int:
        """Lifetime number of events pushed (every push consumes one seq)."""
        return self._seq

    @property
    def cancelled_total(self) -> int:
        """Lifetime number of events cancelled before they fired."""
        return self.cancelled_popped + sum(
            1 for entry in self._heap if entry[2].cancelled)

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def push(self, time: int, fn: Callable[..., Any], args: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` and return the event."""
        seq = self._seq
        self._seq = seq + 1
        ev = _new(Event)
        ev.fn = fn
        ev.args = args
        ev.cancelled = False
        heap = self._heap
        _heappush(heap, (time, seq, ev))
        n = len(heap)
        if n > self._high:
            if n > self._compact_at:
                # Inline, not a helper: this adds no Python frame.
                j = 0
                for entry in heap:
                    if not entry[2].cancelled:
                        heap[j] = entry
                        j += 1
                del heap[j:]
                _heapify(heap)
                self.cancelled_popped += n - j
                n = j
                self._compact_at = max(COMPACT_FLOOR, 2 * j)
            if n > self.heap_peak:
                self.heap_peak = n
            self._high = min(self.heap_peak, self._compact_at)
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel an event previously returned by :meth:`push`."""
        ev.cancel()

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled()
        heap = self._heap
        return heap[0][0] if heap else None

    def pop(self) -> Optional[Tuple[int, Event]]:
        """Remove the next live event; ``(time, event)``, or None if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        time, _, ev = _heappop(self._heap)
        return time, ev

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
            _heappop(heap)
            self.cancelled_popped += 1
