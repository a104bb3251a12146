"""Socket queues."""

import pytest

from repro.netstack.socket import SocketQueue
from repro.workload.request import Request


class FakeThread:
    def __init__(self):
        self.wakes = 0

    def wake(self):
        self.wakes += 1


def pkt():
    return Request(0, 0)


def test_deliver_and_pop_fifo():
    sock = SocketQueue(0)
    a, b = pkt(), pkt()
    sock.deliver(a)
    sock.deliver(b)
    assert sock.pop() is a
    assert sock.pop() is b
    assert sock.pop() is None


def test_deliver_wakes_consumer():
    sock = SocketQueue(0)
    consumer = FakeThread()
    sock.consumer = consumer
    sock.deliver(pkt())
    assert consumer.wakes == 1


def test_capacity_drop():
    sock = SocketQueue(0, capacity=1)
    assert sock.deliver(pkt())
    assert not sock.deliver(pkt())
    assert sock.dropped == 1
    assert sock.delivered == 1


def test_max_depth_tracked():
    sock = SocketQueue(0)
    for _ in range(5):
        sock.deliver(pkt())
    sock.pop()
    sock.deliver(pkt())
    assert sock.max_depth == 5


def test_invalid_capacity():
    with pytest.raises(ValueError):
        SocketQueue(0, capacity=0)
