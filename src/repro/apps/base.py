"""Application base classes."""

from __future__ import annotations

import math
from typing import Optional

from repro.cpu.core import PRIORITY_TASK, Work
from repro.osched.thread import SimThread
from repro.workload.request import Request


def lognormal_cycles(rng, mean_cycles: float, sigma: float) -> float:
    """Draw service cycles from a lognormal with the given *mean*."""
    if sigma <= 0:
        return mean_cycles
    mu = math.log(mean_cycles) - sigma * sigma / 2.0
    return math.exp(rng.gauss(mu, sigma))


class ServerApplication:
    """Base application model.

    Attributes:
        name: application name.
        slo_ns: the P99 response-time SLO (Sec. 3.1: the inflection point
            of the latency-load curve — 1 ms memcached, 10 ms nginx).
        tx_cycles: user-space cost of sending a response (syscall path).
    """

    name = "app"
    slo_ns = 0
    tx_cycles = 1_800.0

    def __init__(self, rng):
        self.rng = rng

    def make_request(self, flow_id: int, created_ns: int) -> Request:
        """Build a request with kind/size/service cycles stamped."""
        raise NotImplementedError

    def request_factory(self):
        """A ``(flow_id, created_ns) -> Request`` callable for the client."""
        return self.make_request


class AppWorkerThread(SimThread):
    """One pinned worker: pops its core's socket queue, serves, responds."""

    def __init__(self, app: ServerApplication, core_id: int, socket, stack):
        super().__init__(f"{app.name}/{core_id}")
        self.app = app
        self.core_id = core_id
        self.socket = socket
        self.stack = stack
        socket.consumer = self
        self.requests_served = 0
        #: Cumulative service cycles accepted (telemetry: per-core
        #: application demand, independent of the frequency it ran at).
        self.service_cycles_total = 0.0
        # Reusable Work shell + the request it currently serves. The
        # round-robin scheduler keeps one chunk in flight per thread, so
        # re-arming the shell is safe and avoids a Work + closure
        # allocation per request.
        self._work: Optional[Work] = None
        self._serving: Optional[Request] = None

    def next_work(self) -> Optional[Work]:
        request = self.socket.pop()
        if request is None:
            return None
        now = self.scheduler.sim.now
        if request.delivered_ns is None:
            request.delivered_ns = now
        request.started_ns = now
        request.core_id = self.core_id
        cycles = request.service_cycles + self.app.tx_cycles
        self.service_cycles_total += cycles
        self._serving = request
        work = self._work
        if work is None:
            self._work = work = Work(cycles, PRIORITY_TASK,
                                     on_complete=self._serve_done,
                                     label=f"{self.app.name}.req")
        else:
            work.cycles_total = work.cycles_remaining = cycles
            work.on_complete = self._serve_done
        return work

    def register_into(self, reg) -> None:
        """Register this worker's service counters."""
        app = {"subsystem": "app", "core": str(self.core_id)}
        reg.counter("app_requests_served_total", "Requests served",
                    read=lambda: self.requests_served, **app)
        reg.gauge("app_service_cycles_total", "Service cycles accepted",
                  read=lambda: self.service_cycles_total, **app)

    def _serve_done(self, work: Work) -> None:
        self.requests_served += 1
        self.stack.send_response(self._serving, self.core_id)
