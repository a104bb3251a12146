"""A closed-loop client, for contrast with the open-loop measurement.

The paper (correctly) measures with open-loop load: arrivals never wait
for responses, so queueing collapse shows up as unbounded latency. A
closed-loop client — N outstanding requests, each issued when the
previous one completes — *self-throttles* under overload and therefore
under-reports tail latency. This implementation exists to demonstrate
that methodological point (see tests): it is not used by any paper
experiment.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.workload.request import Request
from repro.workload.retry import RetryPolicy


class ClosedLoopClient:
    """N concurrent request chains; each completion triggers the next."""

    def __init__(self, sim, nic, concurrency: int, rng,
                 request_factory=None, think_time_ns: int = 0,
                 wire_latency_ns: int = 5_000,
                 retry: Optional[RetryPolicy] = None):
        if concurrency < 1:
            raise ValueError("need at least one outstanding request")
        if think_time_ns < 0:
            raise ValueError("think time must be >= 0")
        self.sim = sim
        self.nic = nic
        self.concurrency = concurrency
        self.rng = rng
        self.request_factory = request_factory or (
            lambda flow_id, t: Request(flow_id, t))
        self.think_time_ns = think_time_ns
        self.wire_latency_ns = wire_latency_ns
        #: Timeout/retry policy; None = legacy fire-and-forget chains
        #: (a dropped packet kills its chain silently).
        self.retry = retry
        self._flow_counter = 0
        self._stopped = False
        self.sent = 0
        self.completed = 0
        self.dropped = 0
        self.timed_out = 0
        self.retries = 0
        self.gave_up = 0
        self.duplicates = 0
        self._latencies: List[int] = []

    def start(self, duration_ns: int) -> None:
        """Launch the chains; new requests stop after ``duration_ns``."""
        self._deadline = duration_ns
        for _ in range(self.concurrency):
            self._send_one()

    def _send_one(self) -> None:
        if self._stopped or self.sim.now >= self._deadline:
            return
        self._flow_counter += 1
        request = self.request_factory(self._flow_counter, self.sim.now)
        # The request is its own data packet.
        if self.retry is None:
            # Legacy fire-and-forget path: exact historical event shape.
            self.sim.schedule(self.wire_latency_ns, self.nic.receive,
                              request)
        else:
            self.sim.schedule(self.wire_latency_ns, self._arrive, request)
        self.sent += 1

    def _arrive(self, request: Request) -> None:
        if not self.nic.receive(request):
            self.dropped += 1
        request.timeout_ev = self.sim.schedule(
            self.retry.timeout_ns, self._on_timeout, request)

    def _on_timeout(self, request: Request) -> None:
        request.timeout_ev = None
        if request.completed_ns is not None:
            return
        self.timed_out += 1
        retry = self.retry
        if request.retries >= retry.max_retries:
            self.gave_up += 1
            # Abandon the request but keep the chain alive: a closed-loop
            # client opens its next request once this one is written off.
            self._send_one()
            return
        attempt = request.retries
        request.retries += 1
        self.retries += 1
        self.sim.schedule(retry.backoff_ns(attempt), self._resend, request)

    def _resend(self, request: Request) -> None:
        if request.completed_ns is not None:
            return
        self.sim.schedule(self.wire_latency_ns, self._arrive, request)

    def on_response(self, request) -> None:
        """Wire as the stack's response sink. A response is the request
        it answers; a bare ACK carries none and is ignored."""
        if request.is_ack:
            return
        if self.retry is not None:
            if request.completed_ns is not None:
                self.duplicates += 1
                return
            ev = request.timeout_ev
            if ev is not None:
                self.sim.cancel(ev)
                request.timeout_ev = None
        request.completed_ns = self.sim.now
        self.completed += 1
        self._latencies.append(request.completed_ns - request.created_ns)
        if self.think_time_ns:
            self.sim.schedule(self.think_time_ns, self._send_one)
        else:
            self._send_one()

    def stop(self) -> None:
        self._stopped = True

    def latencies_ns(self) -> np.ndarray:
        return np.array(self._latencies, dtype=np.int64)

    def throughput_rps(self, duration_ns: int) -> float:
        """Completed requests per second over the run."""
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        return self.completed * 1e9 / duration_ns
