"""Property-based tests: the NAPI path conserves packets."""

from hypothesis import given, settings, strategies as st

from repro.cpu.core import Core
from repro.cpu.pstate import PStateTable
from repro.netstack.ksoftirqd import KsoftirqdThread
from repro.netstack.napi import NapiConfig, NapiContext
from repro.nic.nic import MultiQueueNic
from repro.nic.rss import RssDistributor
from repro.osched.scheduler import CoreScheduler
from repro.sim.simulator import Simulator
from repro.units import GHZ, S
from repro.workload.request import Request

# Batches of (arrival_time_ns, n_packets).
batch_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5_000_000),
              st.integers(min_value=1, max_value=80)),
    min_size=1, max_size=12)


def build():
    sim = Simulator()
    table = PStateTable.linear(1.2 * GHZ, 3.2 * GHZ, 16)
    core = Core(sim, 0, table)
    core.idle_reselect_period_ns = 0
    core.idle_entry_delay_ns = 0
    nic = MultiQueueNic(sim, n_queues=1,
                        rss=RssDistributor(1, mode="round-robin"))
    delivered = []
    napi = NapiContext(sim, core, nic, 0, config=NapiConfig(),
                       deliver=lambda pkt, cid: delivered.append(pkt))
    nic.bind(0, napi.on_interrupt)
    sched = CoreScheduler(sim, core)
    ksoftirqd = KsoftirqdThread(0)
    sched.add_thread(ksoftirqd)
    ksoftirqd.attach_napi(napi)
    return sim, nic, napi, delivered


@settings(max_examples=30, deadline=None)
@given(batch_strategy)
def test_every_data_packet_is_delivered_exactly_once(batches):
    sim, nic, napi, delivered = build()
    total = 0
    for t, n in batches:
        total += n

        def send(n=n):
            for _ in range(n):
                nic.receive(Request(0, sim.now, size_bytes=100))

        sim.schedule_at(t, send)
    sim.run_until(1 * S)
    assert len(delivered) == total
    assert len(set(map(id, delivered))) == total
    # Mode attribution partitions the same packets.
    assert napi.pkts_interrupt_mode + napi.pkts_polling_mode == total
    # All sessions closed; interrupts re-enabled.
    assert napi.state == "irq"
    assert nic._irq_enabled[0]


@settings(max_examples=20, deadline=None)
@given(batch_strategy, st.integers(min_value=0, max_value=15))
def test_conservation_holds_at_any_frequency(batches, pstate):
    sim, nic, napi, delivered = build()
    napi.core.set_pstate_index(pstate)
    total = 0
    for t, n in batches:
        total += n

        def send(n=n):
            for _ in range(n):
                nic.receive(Request(0, sim.now, size_bytes=100))

        sim.schedule_at(t, send)
    sim.run_until(2 * S)
    assert len(delivered) == total
