"""Property fuzz: the sanitized event kernel is event-for-event identical.

Hypothesis drives random interleavings of schedule / cancel / run_until
(including callback-spawned events and cancels through retained,
possibly already-fired handles) through a plain Simulator and a
sanitized one. The sanitizer's shadows must never change *what* fires
*when* — only whether invariant violations raise. ``derandomize=True``
keeps CI runs reproducible: failures shrink to a deterministic program.
"""

from hypothesis import given, settings, strategies as st

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
    return log, sim.events_processed, sim.pending_events


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
