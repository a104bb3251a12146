"""Open-loop client: generates requests, records response latencies.

Open-loop means arrivals never wait for responses — exactly how tail
latency must be measured for latency-critical services (a closed-loop
client would mask queueing collapse).
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.workload.request import Request
from repro.workload.shapes import LoadShape, generate_arrivals

if TYPE_CHECKING:
    from repro.obs.span import SpanLog
    from repro.workload.retry import RetryPolicy


def wrr_pattern(weights: Sequence[int]) -> Tuple[int, ...]:
    """Smooth weighted round-robin expansion of integer session weights.

    The classic interleaving (nginx's smooth WRR): each step every
    session gains its weight of credit, the highest-credit session
    (ties to the lowest id) emits and pays the total back. The result
    is a pure function of the weight vector — no RNG — of length
    ``sum(weights)``, spreading each session as evenly as its share
    allows (weights ``(3, 1)`` give ``a a b a``, not ``a a a b``).
    """
    if not weights:
        raise ValueError("need at least one session weight")
    if any((not isinstance(w, int)) or w < 0 for w in weights):
        raise ValueError("session weights must be non-negative integers")
    total = sum(weights)
    if total < 1:
        raise ValueError("at least one session weight must be positive")
    credit = [0] * len(weights)
    out = []
    for _ in range(total):
        for i, w in enumerate(weights):
            credit[i] += w
        best = max(range(len(weights)), key=lambda i: (credit[i], -i))
        credit[best] -= total
        out.append(best)
    return tuple(out)


class OpenLoopClient:
    """Drives a NIC with a load shape; collects end-to-end latencies."""

    def __init__(self, sim, nic, shape: LoadShape, rng: np.random.Generator,
                 request_factory: Optional[Callable[[int, int], Request]] = None,
                 wire_latency_ns: int = 5_000,
                 n_flows: Optional[int] = None,
                 flow_weights: Optional[Sequence[int]] = None,
                 retry: Optional[RetryPolicy] = None):
        if n_flows is not None and n_flows < 1:
            raise ValueError("need at least one flow")
        #: Deterministic skewed-session pattern, or None for the legacy
        #: uniform round-robin flow assignment (bit-identical path).
        self._flow_pattern: Optional[Tuple[int, ...]] = None
        if flow_weights is not None:
            if n_flows is None or len(flow_weights) != n_flows:
                raise ValueError("flow_weights must have exactly n_flows "
                                 "entries")
            self._flow_pattern = wrr_pattern(flow_weights)
        self.sim = sim
        self.nic = nic
        self.shape = shape
        self.rng = rng
        #: Builds a Request from (flow_id, created_ns); the application
        #: supplies one that sets kind/size/service cycles.
        self.request_factory = request_factory or (
            lambda flow_id, t: Request(flow_id, t))
        self.wire_latency_ns = wire_latency_ns
        #: None = a fresh flow per request (uniform RSS spread, the
        #: testbed's many-connection behaviour). A small number
        #: concentrates flows, producing per-core load imbalance.
        self.n_flows = n_flows
        #: End-to-end span tracing (``sim.spans``): when set, the client
        #: attaches a TraceContext to each sampled request — carrying
        #: the request's 1-based send sequence as its span id — and
        #: folds it back into the log on response. None = tracing off
        #: (no per-request cost).
        self.span_log: Optional[SpanLog] = sim.spans
        #: The TraceContext class, imported only when spans are on so a
        #: spans-off run never loads ``repro.obs.span``.
        self._trace_context = None
        if self.span_log is not None:
            from repro.obs.span import TraceContext
            self._trace_context = TraceContext
        #: Timeout/retry policy (``repro.workload.retry.RetryPolicy``).
        #: None = no timers armed, no retransmissions — the event
        #: stream is bit-identical to a client without retry support.
        self.retry = retry

        #: Creation times (ns) of the whole schedule, generated or fed.
        #: A packed int64 array: a list would box every element for the
        #: whole run, and the doorbell's per-element indexing is slower
        #: on an ndarray.
        self._arrivals = array("q")
        self._next_idx = 0
        #: True while a doorbell event sits in the heap — lets an
        #: external feeder (:meth:`feed_arrivals`) know whether it must
        #: re-arm after appending to an exhausted schedule.
        self._armed = False
        self._flow_counter = 0
        self.sent = 0
        self.dropped = 0
        self.completed = 0
        #: Timer expiries on still-unanswered requests (retry mode).
        self.timed_out = 0
        #: Retransmissions issued.
        self.retries = 0
        #: Requests abandoned after exhausting the retry budget.
        self.gave_up = 0
        #: Responses discarded because the request already completed
        #: (a retransmission raced its original's response).
        self.duplicates = 0
        #: Per-completion logs, packed like the schedule.
        self._latencies = array("q")
        self._completion_times = array("q")

    # ------------------------------------------------------------------ #

    def start(self, duration_ns: int) -> int:
        """Generate the arrival schedule and begin sending; returns count."""
        self._arrivals = array("q", generate_arrivals(
            self.shape, duration_ns, self.rng).tobytes())
        self._next_idx = 0
        self._ring_next()
        return len(self._arrivals)

    def feed_arrivals(self, times_ns) -> None:
        """Append externally dispatched creation times to the schedule.

        The embedding mode: a fleet load balancer (``repro.cluster``)
        decides which node serves each request and feeds the chosen
        node's client its arrival instants — this client then builds the
        request and delivers it one wire latency later exactly as it does
        for its own schedule. Times must be non-decreasing and no earlier
        than already-fed times; the doorbell is re-armed only when the
        previous schedule had drained, so a pre-fed schedule behaves
        bit-identically to :meth:`start`'s.
        """
        arrivals = self._arrivals
        if times_ns:
            if arrivals and times_ns[0] < arrivals[-1]:
                raise ValueError(
                    f"arrivals must be fed in time order "
                    f"({times_ns[0]} < {arrivals[-1]})")
            arrivals.extend(times_ns)
        if not self._armed and self._next_idx < len(arrivals):
            self._ring_next()

    # -- one doorbell event per burst of due arrivals ------------------- #

    def _ring_next(self) -> None:
        if self._next_idx >= len(self._arrivals):
            self._armed = False
            return
        sim = self.sim
        t_arrive = self._arrivals[self._next_idx] + self.wire_latency_ns
        now = sim.now
        sim.queue.push(t_arrive if t_arrive > now else now,
                       self._ring_doorbell, ())
        self._armed = True

    def _ring_doorbell(self) -> None:
        """Deliver every arrival due at (or before) now, then re-arm."""
        arrivals = self._arrivals
        now = self.sim.now
        wire = self.wire_latency_ns
        retry = self.retry
        pattern = self._flow_pattern
        n_flows = self.n_flows
        make_request = self.request_factory
        span_log = self.span_log
        i = self._next_idx
        n = len(arrivals)
        while i < n:
            t = arrivals[i]
            if t + wire > now:
                break
            i += 1
            self.sent += 1
            self._flow_counter = counter = self._flow_counter + 1
            if pattern is not None:
                flow_id = pattern[(counter - 1) % len(pattern)]
            else:
                flow_id = counter if n_flows is None else counter % n_flows
            request = make_request(flow_id, t)
            if span_log is not None and span_log.want(counter):
                request.trace = self._trace_context(counter)
            # The request is its own data packet. Looked up per packet:
            # fault windows shadow nic.receive.
            if not self.nic.receive(request):
                self.dropped += 1
            if retry is not None:
                # Armed regardless of NIC acceptance: a dropped packet
                # is exactly what the timeout exists to recover.
                self._arm_timeout(request)
        self._next_idx = i
        self._ring_next()

    def _arrive(self, request: Request) -> None:
        if not self.nic.receive(request):
            self.dropped += 1
        if self.retry is not None:
            self._arm_timeout(request)

    # -- timeouts and retransmissions (retry is not None) --------------- #

    def _arm_timeout(self, request: Request) -> None:
        sim = self.sim
        request.timeout_ev = sim.queue.push(
            sim.now + self.retry.timeout_ns, self._on_timeout, (request,))

    def _on_timeout(self, request) -> None:
        request.timeout_ev = None
        if request.completed_ns is not None:
            return
        self.timed_out += 1
        retry = self.retry
        if request.retries >= retry.max_retries:
            self.gave_up += 1
            return
        attempt = request.retries
        request.retries += 1
        self.retries += 1
        self.sim.schedule(retry.backoff_ns(attempt), self._resend, request)

    def _resend(self, request: Request) -> None:
        if request.completed_ns is not None:
            return  # the original's response arrived during backoff
        # The same request object goes back on the wire. Latency stays
        # anchored at its original created_ns: a retried request pays
        # for its failed attempts, as a client measuring end-to-end
        # response time would observe.
        sim = self.sim
        sim.queue.push(sim.now + self.wire_latency_ns, self._arrive,
                       (request,))

    # ------------------------------------------------------------------ #

    def on_response(self, packet) -> None:
        """Wire this as the stack's response sink. A response is the
        request it answers; a bare ACK carries none and is ignored."""
        if not packet.is_ack:
            self.on_response_at(packet, self.sim.now)

    def on_response_at(self, request: Request, deliver_ns: int) -> None:
        """Record the response to ``request``, reaching the client at
        ``deliver_ns``.

        Recording is the open-loop client's only reaction to a response,
        so the NIC can call this synchronously at transmit time with the
        (deterministic) future delivery timestamp instead of scheduling a
        wire-delay event per response. :meth:`finalize` later drops the
        records whose delivery falls past the simulated horizon — exactly
        the events that would never have fired.
        """
        if self.retry is not None:
            if request.completed_ns is not None:
                self.duplicates += 1
                return
            ev = request.timeout_ev
            if ev is not None:
                ev.cancel()
                request.timeout_ev = None
        request.completed_ns = deliver_ns
        self.completed += 1
        self._latencies.append(deliver_ns - request.created_ns)
        self._completion_times.append(deliver_ns)
        if self.span_log is not None and request.trace is not None:
            self.span_log.complete(request, request.trace, deliver_ns)

    def finalize(self, t_end: int) -> None:
        """Drop records delivered after ``t_end`` (responses in flight at
        the end of the run, which the event-per-response path would never
        have delivered). Completion times are recorded in transmit order,
        which is monotone in delivery time, so this trims the tail."""
        times = self._completion_times
        keep = len(times)
        while keep and times[keep - 1] > t_end:
            keep -= 1
        if keep != len(times):
            del times[keep:]
            del self._latencies[keep:]
            self.completed = keep
        if self.span_log is not None:
            self.span_log.trim(t_end)

    def register_into(self, reg) -> None:
        """Register the workload counters."""
        for name, help_text, attr in (
                ("requests_sent_total", "Requests generated", "sent"),
                ("requests_completed_total", "Responses recorded",
                 "completed"),
                ("requests_dropped_total",
                 "Request packets dropped before reaching an RX ring",
                 "dropped"),
                ("requests_timed_out_total",
                 "Client timeouts on unanswered requests", "timed_out"),
                ("requests_retried_total", "Retransmissions issued",
                 "retries"),
                ("requests_abandoned_total",
                 "Requests given up after the retry budget", "gave_up"),
                ("responses_duplicate_total",
                 "Responses discarded as duplicates", "duplicates")):
            reg.counter(name, help_text,
                        read=lambda attr=attr: getattr(self, attr),
                        subsystem="workload")

    def window_latencies(self, start_idx: int, t_ns: int):
        """``(next_idx, latencies)`` of completions delivered by ``t_ns``.

        Scans the completion log from ``start_idx``; the returned index
        resumes the scan at the next call, so a periodic sampler visits
        each record exactly once. Completion records are appended in
        transmit order — monotone in delivery time — so a pointer scan
        is exact even though the batched NIC path records responses
        before their (future) delivery instants. Read-only: never
        consult the ``completed`` counter mid-run, it counts recordings,
        not deliveries.
        """
        times = self._completion_times
        i = start_idx
        n = len(times)
        while i < n and times[i] <= t_ns:
            i += 1
        return i, self._latencies[start_idx:i]

    def latencies_ns(self) -> np.ndarray:
        """End-to-end latencies (int64 ns) of completed requests."""
        return np.frombuffer(self._latencies, dtype=np.int64).copy()

    def completion_times_ns(self) -> np.ndarray:
        """Completion timestamps aligned with :meth:`latencies_ns`."""
        return np.frombuffer(self._completion_times,
                             dtype=np.int64).copy()
