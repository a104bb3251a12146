"""Property fuzz: the sanitized event kernel is event-for-event identical.

Hypothesis drives random interleavings of schedule / cancel / run_until
(including callback-spawned events and cancels through retained,
possibly already-fired handles) through a plain Simulator and a
sanitized one. The sanitizer's shadows must never change *what* fires
*when* — only whether invariant violations raise. ``derandomize=True``
keeps CI runs reproducible: failures shrink to a deterministic program.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.event import COMPACT_FLOOR
from repro.sim.simulator import Simulator

_OP = st.one_of(
    st.tuples(st.just("schedule"),
              st.integers(min_value=0, max_value=500),   # delay
              st.integers(min_value=0, max_value=9),     # tag
              st.integers(min_value=0, max_value=50)),   # child delay
    st.tuples(st.just("schedule_at_now"),
              st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("cancel"),
              st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("run"),
              st.integers(min_value=0, max_value=300)),
)

_PROGRAM = st.lists(_OP, max_size=60)


def _execute(sim, ops):
    log = []
    handles = []

    def fire(tag, child_delay):
        log.append((sim.now, tag))
        if child_delay:
            # Events scheduled from inside a firing callback exercise
            # the inlined run loop's mid-flight heap pushes.
            handles.append(sim.schedule(child_delay, fire,
                                        tag * 31 % 10, 0))

    horizon = 0
    for op in ops:
        kind = op[0]
        if kind == "schedule":
            _, delay, tag, child_delay = op
            handles.append(sim.schedule(delay, fire, tag, child_delay))
        elif kind == "schedule_at_now":
            handles.append(sim.schedule_at(sim.now, fire, op[1], 0))
        elif kind == "cancel":
            if handles:
                # Any retained handle is fair game — pending, fired,
                # or already cancelled (both must be no-ops).
                sim.cancel(handles[op[1] % len(handles)])
        else:  # run
            horizon += op[1]
            sim.run_until(horizon)
    sim.run_until(horizon + 10_000)  # drain everything still pending
    return log, sim.events_processed, len(sim.queue)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_PROGRAM)
def test_sanitized_kernel_matches_unsanitized(ops):
    base = _execute(Simulator(sanitize=False), ops)
    checked = _execute(Simulator(sanitize=True), ops)
    assert base == checked


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_PROGRAM)
def test_queue_lifetime_invariant_holds_under_fuzz(ops):
    sim = Simulator(sanitize=False)
    _execute(sim, ops)
    queue = sim.queue
    assert (queue.scheduled_total
            == sim.events_processed + queue.cancelled_total + len(queue))


# -- derived kernel counters against a naive reference ------------------- #

_COUNTER_OP = st.one_of(
    st.tuples(st.just("push"),
              st.integers(min_value=0, max_value=300),    # delay
              st.integers(min_value=0, max_value=40)),    # child delay
    st.tuples(st.just("cancel"),
              st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("run"),
              st.integers(min_value=0, max_value=200)),
)


class _ReferenceQueue:
    """The kernel's counters, kept the obvious way: a plain list of
    pending entries scanned for its minimum, and a count bumped on every
    state change. ``entries`` models the heap: a cancelled entry stays
    until it reaches the head or a push compacts the list (whenever it
    grows past twice the live count the last compaction left, floor
    ``COMPACT_FLOOR``); ``peak`` is its longest length after a push."""

    def __init__(self):
        self.now = 0
        # [time, seq, cancelled, child_delay, child_cancel]
        self.entries = []
        self.scheduled = self.fired = self.cancelled = self.peak = 0
        self.compact_at = COMPACT_FLOOR
        self.log = []          # fired (time, seq), in order

    def push(self, delay, child_delay, child_cancel=None):
        entry = [self.now + delay, self.scheduled, False, child_delay,
                 child_cancel]
        self.scheduled += 1
        self.entries.append(entry)
        if len(self.entries) > self.compact_at:
            self.entries = [e for e in self.entries if not e[2]]
            self.compact_at = max(COMPACT_FLOOR, 2 * len(self.entries))
        self.peak = max(self.peak, len(self.entries))
        return entry

    def cancel(self, entry):
        # Only a pending event is counted: a fired one left the heap,
        # and a second cancel changes nothing.
        if any(e is entry for e in self.entries) and not entry[2]:
            entry[2] = True
            self.cancelled += 1

    def _head(self):
        return min(self.entries, key=lambda e: (e[0], e[1]))

    def _fire(self, entry, handles):
        self.entries.remove(entry)
        self.now = entry[0]
        self.fired += 1
        self.log.append((entry[0], entry[1]))
        if entry[3]:
            handles.append(self.push(entry[3], 0))
        if entry[4] is not None:
            self.cancel(handles[entry[4] % len(handles)])

    def pop(self, handles):
        while self.entries:
            head = self._head()
            if head[2]:
                self.entries.remove(head)
                continue
            self._fire(head, handles)
            return

    def run_until(self, t_end, handles):
        while self.entries:
            head = self._head()
            if head[2]:
                self.entries.remove(head)
                continue
            if head[0] > t_end:
                break
            self._fire(head, handles)
        self.now = max(self.now, t_end)

    def counters(self):
        return (self.scheduled, self.fired, self.cancelled, self.peak,
                sum(1 for e in self.entries if not e[2]), self.now)


def _kernel_counters(sim):
    perf = sim.perf_snapshot()
    return (perf.events_scheduled, perf.events_fired, perf.events_cancelled,
            perf.heap_peak, len(sim.queue), sim.now)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_COUNTER_OP, max_size=80), st.booleans())
def test_derived_counters_match_a_naive_reference(ops, sanitize):
    """Push / cancel (pending, fired, twice) / pop / run_until in any
    order: the kernel's derived counters equal the reference's after
    every step, unsanitized and sanitized."""
    sim = Simulator(sanitize=sanitize)
    ref = _ReferenceQueue()
    handles, ref_handles = [], []

    def fire(child_delay):
        if child_delay:
            handles.append(sim.schedule(child_delay, fire, 0))

    horizon = 0
    for op in ops:
        kind = op[0]
        if kind == "push":
            _, delay, child_delay = op
            handles.append(sim.schedule(delay, fire, child_delay))
            ref_handles.append(ref.push(delay, child_delay))
        elif kind == "cancel":
            if handles:
                i = op[1] % len(handles)
                handles[i].cancel()
                ref.cancel(ref_handles[i])
        elif kind == "pop":
            sim.step()
            ref.pop(ref_handles)
        else:  # run
            horizon = max(horizon, sim.now) + op[1]
            sim.run_until(horizon)
            ref.run_until(horizon, ref_handles)
        assert len(handles) == len(ref_handles)
        assert _kernel_counters(sim) == ref.counters()
    sim.run_until(horizon + 10_000)
    ref.run_until(horizon + 10_000, ref_handles)
    assert _kernel_counters(sim) == ref.counters()


# -- compaction of cancelled timers -------------------------------------- #

#: Timers far beyond any run step, so most are cancelled long before
#: they could fire (the idle re-selection and slice timers of a model
#: run), plus short ones that fire and spawn children from callbacks.
_TIMER_OP = st.one_of(
    st.tuples(st.just("timer"),
              st.integers(min_value=1_000, max_value=1_000_000)),
    st.tuples(st.just("short"),
              st.integers(min_value=0, max_value=400),       # delay
              st.integers(min_value=1_000, max_value=500_000),  # child
              st.one_of(st.none(),
                        st.integers(min_value=0, max_value=10_000))),
    st.tuples(st.just("cancel"),
              st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("run"),
              st.integers(min_value=0, max_value=500)),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_TIMER_OP, min_size=100, max_size=400), st.booleans())
def test_compaction_keeps_fired_order_and_counters(ops, sanitize):
    """Hundreds of long-horizon timers pushed and cancelled, from the
    test and from callbacks inside ``run_until``: compaction keeps the
    heap list object, bounds its length after every push, and leaves
    the fired ``(time, seq)`` order and every counter equal to the
    naive reference, unsanitized and sanitized."""
    sim = Simulator(sanitize=sanitize)
    queue = sim.queue
    heap = queue._heap
    ref = _ReferenceQueue()
    handles, ref_handles, log = [], [], []
    left = [0]          # live entries the last compaction left
    compactions = [0]

    def push(delay, child_delay=0, child_cancel=None):
        before = len(heap)
        seq = queue.scheduled_total
        handles.append(sim.schedule(delay, fire, seq, child_delay,
                                    child_cancel))
        assert queue._heap is heap
        n = len(heap)
        if before + 1 > max(COMPACT_FLOOR, 2 * left[0]):
            # Compacted: only live entries are left, the new one too.
            assert n <= before + 1
            assert not any(entry[2].cancelled for entry in heap)
            left[0] = n
            compactions[0] += 1
        else:
            assert n == before + 1
        assert n <= max(COMPACT_FLOOR, 2 * left[0])

    def fire(seq, child_delay, child_cancel):
        log.append((sim.now, seq))
        if child_delay:
            push(child_delay)
        if child_cancel is not None:
            handles[child_cancel % len(handles)].cancel()

    # Past the floor at once: every other timer of the first 100 is
    # cancelled before the random program starts.
    ops = [("timer", 1_000_000 + i) for i in range(100)] + [
        ("cancel", i) for i in range(0, 100, 2)] + ops
    horizon = 0
    for op in ops:
        kind = op[0]
        if kind == "timer":
            push(op[1])
            ref_handles.append(ref.push(op[1], 0))
        elif kind == "short":
            _, delay, child_delay, child_cancel = op
            push(delay, child_delay, child_cancel)
            ref_handles.append(ref.push(delay, child_delay, child_cancel))
        elif kind == "cancel":
            if handles:
                i = op[1] % len(handles)
                handles[i].cancel()
                ref.cancel(ref_handles[i])
        else:  # run
            horizon = max(horizon, sim.now) + op[1]
            sim.run_until(horizon)
            ref.run_until(horizon, ref_handles)
        assert queue._heap is heap
        assert len(heap) == len(ref.entries)
        assert _kernel_counters(sim) == ref.counters()
    assert compactions[0] >= 1
    sim.run_until(horizon + 2_000_000)
    ref.run_until(horizon + 2_000_000, ref_handles)
    assert queue._heap is heap
    assert log == ref.log
    assert _kernel_counters(sim) == ref.counters()
