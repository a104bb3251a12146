"""Packets: a request is the data packet, a Packet is a bare ACK."""

import pytest

from repro.nic.packet import Packet
from repro.workload.request import Request


def test_default_kind_is_data():
    # A data packet is the request itself.
    assert Request(0, 0).is_ack is False


def test_ack_kind():
    pkt = Packet(flow_id=0, size_bytes=64)
    assert pkt.is_ack is True


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Packet(flow_id=0, size_bytes=0)
