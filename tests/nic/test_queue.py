"""NIC queue: Rx ring and Tx-completion count."""

import pytest

from repro.nic.packet import Packet
from repro.nic.queue import NicQueue


def pkt(flow=0):
    return Packet(flow_id=flow, size_bytes=100)


def test_rx_fifo_order():
    q = NicQueue(0)
    a, b = pkt(), pkt()
    q.push_rx(a)
    q.push_rx(b)
    assert q.pop_rx() is a
    assert q.pop_rx() is b
    assert q.pop_rx() is None


def test_rx_tail_drop_when_full():
    q = NicQueue(0, rx_capacity=2)
    assert q.push_rx(pkt())
    assert q.push_rx(pkt())
    assert not q.push_rx(pkt())
    assert q.rx_dropped == 1
    assert q.rx_enqueued == 2


def test_txc_ring():
    q = NicQueue(0)
    q.push_txc()
    q.push_txc(4)
    assert q.txc_pending == 5
    assert q.txc_enqueued == 5
    assert q.take_txc(3) == 3
    assert q.txc_pending == 2
    assert q.take_txc(0) == 0
    assert q.take_txc(8) == 2
    assert q.take_txc(8) == 0
    assert q.txc_pending == 0
    assert q.txc_enqueued == 5  # a lifetime total, not a depth


def test_has_work_reflects_both_rings():
    q = NicQueue(0)
    assert not q.has_work
    q.push_rx(pkt())
    assert q.has_work
    q.pop_rx()
    assert not q.has_work
    q.push_txc()
    assert q.has_work
    q.take_txc(1)
    assert not q.has_work


def test_rx_depth():
    q = NicQueue(0)
    q.push_rx(pkt())
    q.push_rx(pkt())
    assert len(q.rx) == 2


def test_invalid_capacity():
    with pytest.raises(ValueError):
        NicQueue(0, rx_capacity=0)
