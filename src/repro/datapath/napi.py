"""The kernel NAPI datapath as an RxBackend (the default).

This is the pre-refactor wiring moved behind the backend seam, kept
construction-for-construction identical: one ksoftirqd thread and one
:class:`~repro.netstack.napi.NapiContext` per core, the NAPI bound as
the queue's interrupt handler. The NAPI rows of the golden table
(``tests/goldens.json``) hold this path bit-identical — latencies,
float energy, trace channels, event counts — to the pre-seam results.
"""

from __future__ import annotations

from typing import List

from repro.datapath.base import RxBackend
from repro.datapath.steering import spread_queues
from repro.netstack.ksoftirqd import KsoftirqdThread
from repro.netstack.napi import MODE_INTERRUPT, MODE_POLLING, NapiContext


class NapiRxBackend(RxBackend):
    """Interrupt -> softirq -> ksoftirqd packet processing (Fig. 1)."""

    name = "napi"

    def __init__(self, stack):
        super().__init__(stack)
        self.napis: List[NapiContext] = []
        self.ksoftirqds: List[KsoftirqdThread] = []

    def build(self) -> None:
        stack = self.stack
        # One queue per core: the shared steering spread is the identity
        # map here, so routing through it is bit-identical to the
        # pre-helper wiring (queue q's NAPI lives on core q).
        consumer_for_queue = spread_queues(
            stack.nic.n_queues,
            [core.core_id for core in stack.processor.cores])
        for qid, cid in enumerate(consumer_for_queue):
            core = stack.processor.cores[cid]
            ksoftirqd = KsoftirqdThread(cid)
            stack.schedulers[cid].add_thread(ksoftirqd)
            napi = NapiContext(stack.sim, core, stack.nic, qid,
                               config=stack.config.napi,
                               deliver=stack._deliver)
            ksoftirqd.attach_napi(napi)
            stack.nic.bind(qid, napi.on_interrupt)
            self.ksoftirqds.append(ksoftirqd)
            self.napis.append(napi)

    # -- wiring introspection ------------------------------------------- #

    def mode_source(self, core_id: int) -> NapiContext:
        return self.napis[core_id]

    def wire_trace_probes(self, trace) -> None:
        super().wire_trace_probes(trace)
        sim = self.stack.sim
        for cid, ksoftirqd in enumerate(self.ksoftirqds):
            ksoftirqd.wake_listeners.append(
                lambda t, channel=f"core{cid}.ksoftirqd_wake": trace.record(
                    channel, sim.now, 1))

    # -- accounting ----------------------------------------------------- #

    def register_into(self, reg) -> None:
        for cid, napi in enumerate(self.napis):
            net = {"subsystem": "netstack", "core": str(cid)}
            reg.counter("napi_interrupts_total", "Hardware interrupts taken",
                        read=lambda napi=napi: napi.irq_count, **net)
            reg.counter("napi_sessions_total", "NAPI softirq sessions",
                        read=lambda napi=napi: napi.sessions, **net)
            reg.counter("napi_deferrals_total", "Deferrals to ksoftirqd",
                        read=lambda napi=napi: napi.deferrals, **net)
            interrupt = lambda napi=napi: napi.pkts_interrupt_mode
            polling = lambda napi=napi: napi.pkts_polling_mode
            reg.counter("napi_pkts_total", "Rx packets by processing mode",
                        read=interrupt, mode="interrupt", **net)
            reg.counter("napi_pkts_total", read=polling, mode="polling",
                        **net)
            self._count_pkts(reg, cid, MODE_INTERRUPT, interrupt)
            self._count_pkts(reg, cid, MODE_POLLING, polling)
            self._counter(reg, "datapath_poll_loops_total",
                          "Burst retrievals completed", cid,
                          lambda napi=napi: napi.poll_count)
        for cid, ksoftirqd in enumerate(self.ksoftirqds):
            net = {"subsystem": "netstack", "core": str(cid)}
            reg.counter("ksoftirqd_wakeups_total", "ksoftirqd thread wakes",
                        read=lambda k=ksoftirqd: k.wake_count, **net)
            reg.counter("ksoftirqd_batches_total", "Deferred poll batches run",
                        read=lambda k=ksoftirqd: k.batches_run, **net)


__all__ = ["NapiRxBackend"]
