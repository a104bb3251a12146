"""NAPI mode transitions: interrupt vs polling, budgets, deferral."""

import pytest

from repro.netstack.napi import (MODE_INTERRUPT, MODE_POLLING, NapiConfig,
                                 NapiContext, STATE_IRQ, STATE_SOFTIRQ)
from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.nic.rss import RssDistributor
from repro.osched.scheduler import CoreScheduler
from repro.netstack.ksoftirqd import KsoftirqdThread
from repro.units import MS, US
from repro.workload.request import Request


def build(sim, core, config=None, with_ksoftirqd=False):
    nic = MultiQueueNic(sim, n_queues=1,
                        rss=RssDistributor(1, mode="round-robin"))
    delivered = []
    napi = NapiContext(sim, core, nic, 0,
                       config=config or NapiConfig(),
                       deliver=lambda pkt, cid: delivered.append(pkt))
    nic.bind(0, napi.on_interrupt)
    if with_ksoftirqd:
        sched = CoreScheduler(sim, core)
        ksoftirqd = KsoftirqdThread(core.core_id)
        sched.add_thread(ksoftirqd)
        ksoftirqd.attach_napi(napi)
    return nic, napi, delivered


def pkt(flow=0, kind="data"):
    """A request (the data packet), or a bare ACK for ``kind="ack"``."""
    if kind == "ack":
        return Packet(flow_id=flow, size_bytes=128)
    return Request(flow, 0, size_bytes=128)


def test_single_packet_processed_in_interrupt_mode(sim, core):
    nic, napi, delivered = build(sim, core)
    nic.receive(pkt())
    sim.run_until(1 * MS)
    assert len(delivered) == 1
    assert napi.pkts_interrupt_mode == 1
    assert napi.pkts_polling_mode == 0
    assert napi.state == STATE_IRQ
    assert nic._irq_enabled[0]


def test_backlog_beyond_budget_counts_as_polling(sim, core):
    config = NapiConfig(poll_budget=4)
    nic, napi, delivered = build(sim, core, config)
    nic.disable_irq(0)
    for _ in range(10):
        nic.receive(pkt())
    nic.enable_irq(0)
    sim.run_until(5 * MS)
    assert len(delivered) == 10
    # First poll (4 packets) is interrupt mode; re-polls are polling mode.
    assert napi.pkts_interrupt_mode == 4
    assert napi.pkts_polling_mode == 6


def test_irq_masked_while_polling(sim, core):
    config = NapiConfig(poll_budget=1, rx_cycles_per_packet=3_200_000)
    nic, napi, delivered = build(sim, core, config)
    for _ in range(3):
        nic.receive(pkt())
    sim.run_until(10 * US)
    assert napi.state == STATE_SOFTIRQ
    assert not nic._irq_enabled[0]
    sim.run_until(50 * MS)
    assert napi.state == STATE_IRQ
    assert nic._irq_enabled[0]


def test_interrupt_while_polling_is_a_bug(sim, core):
    nic, napi, _ = build(sim, core)
    napi.state = STATE_SOFTIRQ
    with pytest.raises(RuntimeError):
        napi.on_interrupt(0)


def test_time_limit_defers_to_ksoftirqd(sim, core):
    # Each poll takes ~1 ms at P0 (1 packet/batch), so the 600 µs default
    # limit defers after the first re-poll.
    config = NapiConfig(poll_budget=1, rx_cycles_per_packet=3_200_000)
    nic, napi, delivered = build(sim, core, config, with_ksoftirqd=True)
    for _ in range(5):
        nic.receive(pkt())
    sim.run_until(100 * MS)
    assert napi.deferrals >= 1
    assert len(delivered) == 5
    assert napi.ksoftirqd.wake_count >= 1
    assert napi.state == STATE_IRQ  # finished and re-armed


def test_deferral_without_ksoftirqd_keeps_polling(sim, core):
    config = NapiConfig(poll_budget=1, rx_cycles_per_packet=3_200_000)
    nic, napi, delivered = build(sim, core, config, with_ksoftirqd=False)
    for _ in range(4):
        nic.receive(pkt())
    sim.run_until(100 * MS)
    assert len(delivered) == 4


def test_ack_packets_not_delivered_to_socket(sim, core):
    nic, napi, delivered = build(sim, core)
    nic.receive(pkt(kind="ack"))
    nic.receive(pkt(kind="data"))
    sim.run_until(1 * MS)
    assert len(delivered) == 1
    assert not delivered[0].is_ack


def test_poll_listeners_observe_counts_and_modes(sim, core):
    observed = []
    nic, napi, _ = build(sim, core, NapiConfig(poll_budget=2))
    napi.poll_listeners.append(
        lambda n, count, mode: observed.append((count, mode)))
    nic.disable_irq(0)
    for _ in range(3):
        nic.receive(pkt())
    nic.enable_irq(0)
    sim.run_until(5 * MS)
    assert (2, MODE_INTERRUPT) in observed
    assert (1, MODE_POLLING) in observed


def test_txc_cleanup_counts_toward_budget(sim, core):
    config = NapiConfig(poll_budget=4)
    nic, napi, delivered = build(sim, core, config)
    nic.disable_irq(0)
    nic.queues[0].push_txc(3)
    for _ in range(3):
        nic.receive(pkt())
    nic.enable_irq(0)
    sim.run_until(5 * MS)
    # First batch: 3 txc + 1 rx (budget 4); second: 2 rx.
    assert napi.pkts_interrupt_mode == 1
    assert napi.pkts_polling_mode == 2
    assert len(delivered) == 3
    assert nic.queues[0].txc_pending == 0


def test_config_validation():
    with pytest.raises(ValueError):
        NapiConfig(poll_budget=0)
    with pytest.raises(ValueError):
        NapiConfig(max_iterations=0)
