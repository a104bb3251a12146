"""nginx: a lightweight static web server model.

Requests fetch files whose sizes follow a lognormal distribution; service
cost has a fixed protocol-processing part plus a per-byte part, giving the
heavier-tailed service times typical of web serving. SLO: P99 <= 10 ms.
"""

from __future__ import annotations

import math

from repro.apps.base import ServerApplication, lognormal_cycles
from repro.units import MS
from repro.workload.request import Request


class NginxApp(ServerApplication):
    """The paper's nginx server model."""

    name = "nginx"
    slo_ns = 10 * MS

    def __init__(self, rng, base_cycles: float = 70_000.0,
                 cycles_per_byte: float = 0.8,
                 median_file_bytes: float = 24_576.0,
                 file_sigma: float = 0.6):
        super().__init__(rng)
        self.base_cycles = base_cycles
        self.cycles_per_byte = cycles_per_byte
        self.median_file_bytes = median_file_bytes
        self.file_sigma = file_sigma

    def mean_service_cycles(self) -> float:
        """Expected service cycles across the file-size distribution."""
        mean_size = self.median_file_bytes * math.exp(self.file_sigma ** 2 / 2)
        return self.base_cycles + self.cycles_per_byte * mean_size

    def make_request(self, flow_id: int, created_ns: int) -> Request:
        rng = self.rng
        size = self.median_file_bytes * math.exp(
            rng.gauss(0.0, self.file_sigma))
        size = max(64.0, size)
        cycles = (lognormal_cycles(rng, self.base_cycles, 0.15)
                  + self.cycles_per_byte * size)
        # The multi-segment TCP response draws one ACK per MSS segment —
        # the inbound packet flood that makes nginx's softirq load heavy.
        return Request(flow_id, created_ns, "http_get", 220, cycles,
                       int(size), True)
