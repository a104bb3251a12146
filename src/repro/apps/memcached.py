"""memcached: an in-memory key-value store model.

GET-dominated traffic (90% GET / 10% SET) with short, lightly skewed
service times. SLO: P99 <= 1 ms (Sec. 3.1).
"""

from __future__ import annotations

import math

from repro.apps.base import ServerApplication
from repro.units import MS
from repro.workload.request import Request


class MemcachedApp(ServerApplication):
    """The paper's memcached server model."""

    name = "memcached"
    slo_ns = 1 * MS

    tx_cycles = 800.0

    def __init__(self, rng, get_fraction: float = 0.9,
                 get_mean_cycles: float = 3_200.0,
                 set_mean_cycles: float = 4_800.0,
                 sigma: float = 0.20):
        super().__init__(rng)
        if not 0.0 <= get_fraction <= 1.0:
            raise ValueError("get_fraction must be in [0, 1]")
        self.get_fraction = get_fraction
        self.get_mean_cycles = get_mean_cycles
        self.set_mean_cycles = set_mean_cycles
        self.sigma = sigma

    def mean_service_cycles(self) -> float:
        """Expected service cycles across the GET/SET mix."""
        return (self.get_fraction * self.get_mean_cycles
                + (1 - self.get_fraction) * self.set_mean_cycles)

    def make_request(self, flow_id: int, created_ns: int) -> Request:
        rng = self.rng
        if rng.random() < self.get_fraction:
            kind, mean = "get", self.get_mean_cycles
            size = 96
        else:
            kind, mean = "set", self.set_mean_cycles
            size = 256
        sigma = self.sigma
        if sigma <= 0:  # lognormal_cycles, inlined (one draw per request)
            cycles = mean
        else:
            cycles = math.exp(rng.gauss(
                math.log(mean) - sigma * sigma / 2.0, sigma))
        # Positional: (flow, created, kind, size, cycles, response bytes,
        # acked) — one call per request, no keyword matching.
        return Request(flow_id, created_ns, kind, size, cycles, 256, False)
