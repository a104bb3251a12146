"""Span-based end-to-end request tracing.

A sampled request carries a :class:`TraceContext` from creation at the
client through the server and back. Instrumentation points stamp the
boundary timestamps of the paper's processing pipeline (Fig. 1):

====================  =====================================================
boundary              stamped by
====================  =====================================================
``created_ns``        the client, when the request is generated
``nic_rx_ns``         ``MultiQueueNic.receive`` (arrival at the Rx queue)
``poll_ns``           NAPI, when a poll batch dequeues the packet
``sock_ns``           the stack, on socket delivery (poll completion)
``started_ns``        the application worker, when service begins
``tx_ns``             the stack, when the response is handed to the NIC
``completed_ns``      the client, when the response arrives back
====================  =====================================================

Consecutive boundaries tile the end-to-end interval exactly, so the six
stage spans (:data:`STAGES`) sum to the recorded latency to the
nanosecond — the invariant the Perfetto export and the breakdown table
rely on (and tests enforce).

Sampling is deterministic: whether request *i* of a run is traced is a
pure function of ``(sample_rate, seed, i)``, so serial and parallel
executions of the same configuration trace the same requests. The
span id of a record is that same *i* — the client's 1-based send
sequence — so it too depends on nothing but the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.rng import derive_stream

#: Stage names, in path order. Stage k spans ``bounds[k] .. bounds[k+1]``.
STAGES: Tuple[str, ...] = ("wire-rx", "rx-queue", "softirq", "socket",
                           "app-service", "tx-wire")


class TraceContext:
    """Per-request scratchpad for the in-flight stage boundary stamps.

    Attached to ``Request.trace`` at creation when the request is
    sampled; the client folds it into a :class:`RequestTrace` record on
    completion. Boundaries the packet never reached stay None (e.g. a
    tail-dropped request), and such contexts are silently discarded.
    """

    __slots__ = ("request_id", "nic_rx_ns", "poll_ns", "sock_ns", "tx_ns",
                 "via_ksoftirqd")

    def __init__(self, request_id: int) -> None:
        #: The span id: the request's 1-based send sequence at its
        #: client (the index :meth:`SpanLog.want` sampled).
        self.request_id = request_id
        self.nic_rx_ns: Optional[int] = None
        self.poll_ns: Optional[int] = None
        self.sock_ns: Optional[int] = None
        self.tx_ns: Optional[int] = None
        #: True when the packet's poll batch ran in ksoftirqd context
        #: (deferred polling) rather than directly in softirq.
        self.via_ksoftirqd = False


class RequestTrace:
    """One completed request's immutable span record."""

    __slots__ = ("request_id", "kind", "flow_id", "core_id",
                 "via_ksoftirqd", "bounds")

    def __init__(self, request_id: int, kind: str, flow_id: int,
                 core_id: Optional[int], via_ksoftirqd: bool,
                 bounds: Tuple[int, ...]):
        if len(bounds) != len(STAGES) + 1:
            raise ValueError(f"need {len(STAGES) + 1} boundaries, "
                             f"got {len(bounds)}")
        self.request_id = request_id
        self.kind = kind
        self.flow_id = flow_id
        self.core_id = core_id
        self.via_ksoftirqd = via_ksoftirqd
        #: The 7 boundary timestamps (ns), non-decreasing.
        self.bounds = bounds

    # Pickling support for __slots__ classes (RunResults are cached).
    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    @property
    def created_ns(self) -> int:
        return self.bounds[0]

    @property
    def completed_ns(self) -> int:
        return self.bounds[-1]

    @property
    def total_ns(self) -> int:
        """End-to-end latency; equals the sum of the stage durations."""
        return self.bounds[-1] - self.bounds[0]

    def spans(self) -> List[Tuple[str, int, int]]:
        """``(stage, start_ns, duration_ns)`` per stage, in path order."""
        b = self.bounds
        return [(stage, b[i], b[i + 1] - b[i])
                for i, stage in enumerate(STAGES)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RequestTrace {self.request_id} core={self.core_id} "
                f"{self.total_ns}ns>")


class SpanLog:
    """Collects the finished :class:`RequestTrace` records of one run.

    Also owns the sampling decision (:meth:`want`), so the client needs a
    single object to consult, and the decision stays a deterministic
    function of ``(sample_rate, seed, request index)``.
    """

    def __init__(self, sample_rate: float, seed: int = 0):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        # Compare the hash's top 32 bits against a fixed-point threshold;
        # rate 1.0 gives 2**32, which every 32-bit value is below.
        self._threshold = int(round(self.sample_rate * (1 << 32)))
        self.records: List[RequestTrace] = []

    def __len__(self) -> int:
        return len(self.records)

    def want(self, index: int) -> bool:
        """Deterministic sampling verdict for the run's ``index``-th request.

        The hash is the shared SplitMix64 stream derivation
        (:func:`repro.sim.rng.derive_stream`); single-integer-key
        derivation is bit-identical to the ad-hoc mix this module used
        before the helper existed, so sampled sets never moved.
        """
        if self._threshold >= (1 << 32):
            return True
        return (derive_stream(self.seed, index) >> 32) < self._threshold

    def complete(self, request, ctx: TraceContext,
                 completed_ns: int) -> None:
        """Fold a completed request's context into a span record.

        Contexts with missing boundaries (packets that skipped part of
        the instrumented path, e.g. injected mid-stack by a unit test)
        are dropped rather than recorded partially.
        """
        bounds = (request.created_ns, ctx.nic_rx_ns, ctx.poll_ns,
                  ctx.sock_ns, request.started_ns, ctx.tx_ns, completed_ns)
        if any(b is None for b in bounds):
            return
        self.records.append(RequestTrace(
            request_id=ctx.request_id, kind=request.kind,
            flow_id=request.flow_id, core_id=request.core_id,
            via_ksoftirqd=ctx.via_ksoftirqd, bounds=bounds))

    def trim(self, t_end: int) -> None:
        """Drop records completing after ``t_end`` (mirrors the client's
        drain-window trim; completion order is monotone in time)."""
        records = self.records
        keep = len(records)
        while keep and records[keep - 1].completed_ns > t_end:
            keep -= 1
        del records[keep:]

    # ----------------------------------------------------------------- #
    # Aggregation
    # ----------------------------------------------------------------- #

    def stage_matrix(self) -> Dict[str, np.ndarray]:
        """Stage name -> int64 array of that stage's durations (ns)."""
        if not self.records:
            return {stage: np.empty(0, dtype=np.int64) for stage in STAGES}
        bounds = np.array([r.bounds for r in self.records], dtype=np.int64)
        durations = np.diff(bounds, axis=1)
        return {stage: durations[:, i] for i, stage in enumerate(STAGES)}

    def register_into(self, reg) -> None:
        """Export per-stage latency histograms (nothing when empty)."""
        if not self.records:
            return
        matrix = self.stage_matrix()
        for stage in STAGES:
            reg.histogram("request_stage_ns",
                          "Per-stage latency of sampled requests",
                          subsystem="tracing",
                          stage=stage).observe_many(matrix[stage])
        reg.counter("traced_requests_total", "Requests span-traced",
                    subsystem="tracing").inc(len(self.records))

    def totals_ns(self) -> np.ndarray:
        """End-to-end latency (ns) per record."""
        return np.array([r.total_ns for r in self.records], dtype=np.int64)

    def breakdown_table(self) -> Tuple[List[str], List[List]]:
        """``(headers, rows)`` of the per-stage latency breakdown.

        One row per stage plus a closing ``end-to-end`` row; shares are
        of total time spent across all sampled requests, so they sum to
        100% (the spans tile each request exactly).
        """
        headers = ["stage", "mean (µs)", "p50 (µs)", "p99 (µs)",
                   "max (µs)", "share (%)"]
        matrix = self.stage_matrix()
        totals = self.totals_ns()
        grand_total = float(totals.sum()) if totals.size else 0.0
        rows: List[List] = []
        for stage in STAGES:
            d = matrix[stage]
            if d.size == 0:
                rows.append([stage, "-", "-", "-", "-", "-"])
                continue
            share = 100.0 * float(d.sum()) / grand_total if grand_total else 0.0
            rows.append([stage,
                         round(float(d.mean()) / 1e3, 2),
                         round(float(np.percentile(d, 50)) / 1e3, 2),
                         round(float(np.percentile(d, 99)) / 1e3, 2),
                         round(float(d.max()) / 1e3, 2),
                         round(share, 1)])
        if totals.size:
            rows.append(["end-to-end",
                         round(float(totals.mean()) / 1e3, 2),
                         round(float(np.percentile(totals, 50)) / 1e3, 2),
                         round(float(np.percentile(totals, 99)) / 1e3, 2),
                         round(float(totals.max()) / 1e3, 2),
                         100.0])
        return headers, rows

    def max_tiling_error_ns(self) -> int:
        """Largest |sum(spans) - end-to-end latency| over all records.

        Zero by construction; exported so harnesses/CI can assert the
        acceptance invariant explicitly.
        """
        worst = 0
        for r in self.records:
            spans_sum = sum(dur for _, _, dur in r.spans())
            worst = max(worst, abs(spans_sum - r.total_ns))
        return worst
