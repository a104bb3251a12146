"""Multi-queue NIC: steering, interrupt raising, masking, Tx."""

import pytest

from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.nic.rss import RssDistributor
from repro.units import MS, US
from repro.workload.request import Request


def make_nic(sim, n_queues=2, **kwargs):
    kwargs.setdefault("rss", RssDistributor(n_queues, mode="round-robin"))
    return MultiQueueNic(sim, n_queues=n_queues, **kwargs)


def pkt(flow=0):
    """A data packet: the request itself."""
    return Request(flow, 0, size_bytes=128)


def test_receive_steers_by_rss(sim):
    nic = make_nic(sim)
    nic.bind(0, lambda q: None)
    nic.bind(1, lambda q: None)
    nic.receive(pkt(flow=0))
    nic.receive(pkt(flow=1))
    assert len(nic.queues[0].rx) == 1
    assert len(nic.queues[1].rx) == 1


def test_interrupt_fires_after_moderation(sim):
    fired = []
    nic = make_nic(sim, itr_gap_ns=10 * US)
    nic.bind(0, lambda q: fired.append((q, sim.now)))
    nic.receive(pkt(flow=0))
    sim.run_until(1 * MS)
    assert fired == [(0, 0)]  # first interrupt immediate


def test_second_interrupt_respects_gap(sim):
    fired = []
    nic = make_nic(sim, itr_gap_ns=10 * US)

    def handler(q):
        fired.append(sim.now)
        nic.disable_irq(q)
        nic.queues[q].pop_rx()          # drain
        nic.enable_irq(q)

    nic.bind(0, handler)
    nic.receive(pkt(flow=0))
    sim.run_until(1 * US)
    nic.receive(pkt(flow=0))
    sim.run_until(1 * MS)
    assert fired == [0, 10 * US]


def test_masked_queue_never_interrupts(sim):
    fired = []
    nic = make_nic(sim)
    nic.bind(0, lambda q: fired.append(q))
    nic.disable_irq(0)
    nic.receive(pkt(flow=0))
    sim.run_until(1 * MS)
    assert fired == []
    assert len(nic.queues[0].rx) == 1


def test_enable_irq_rearms_pending_work(sim):
    fired = []
    nic = make_nic(sim)
    nic.bind(0, lambda q: fired.append(sim.now))
    nic.disable_irq(0)
    nic.receive(pkt(flow=0))
    sim.run_until(50 * US)
    nic.enable_irq(0)
    sim.run_until(1 * MS)
    assert fired == [50 * US]


def test_data_packet_counter_excludes_acks_and_raw(sim):
    nic = make_nic(sim)
    nic.bind(0, lambda q: None)
    nic.bind(1, lambda q: None)
    nic.receive(pkt(flow=0))
    nic.receive(Packet(flow_id=0, size_bytes=64))
    # Every frame that is not a request is a bare ACK.
    nic.receive(Packet(flow_id=0, size_bytes=64))
    assert nic.rx_packets == 3
    assert nic.rx_data_packets == 1


def test_transmit_delivers_after_wire_latency(sim):
    got = []
    nic = make_nic(sim, wire_latency_ns=5 * US)
    nic.bind(0, lambda q: None)
    p = pkt(flow=0)
    nic.transmit(p, 0, lambda packet: got.append((packet, sim.now)))
    sim.run_until(1 * MS)
    assert got == [(p, 5 * US)]
    assert nic.queues[0].txc_enqueued == 1


def test_unbound_queue_interrupt_raises(sim):
    nic = make_nic(sim)
    nic.receive(pkt(flow=0))
    with pytest.raises(RuntimeError):
        sim.run_until(1 * MS)


def test_rx_capacity_drop_counts(sim):
    nic = make_nic(sim, rx_capacity=1)
    nic.bind(0, lambda q: None)
    nic.bind(1, lambda q: None)
    nic.disable_irq(0)
    assert nic.receive(pkt(flow=0))
    assert not nic.receive(pkt(flow=0))
    assert nic.queues[0].rx_dropped == 1
