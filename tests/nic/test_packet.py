"""Packet objects."""

import pytest

from repro.nic.packet import Packet


def test_unique_ids():
    a = Packet(flow_id=1, size_bytes=64, created_ns=0)
    b = Packet(flow_id=1, size_bytes=64, created_ns=0)
    assert a.packet_id != b.packet_id


def test_default_kind_is_data():
    assert Packet(flow_id=0, size_bytes=64, created_ns=0).kind == "data"


def test_ack_kind():
    pkt = Packet(flow_id=0, size_bytes=64, created_ns=0, kind="ack")
    assert pkt.kind == Packet.KIND_ACK


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Packet(flow_id=0, size_bytes=0, created_ns=0)


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        Packet(flow_id=0, size_bytes=64, created_ns=0, kind="rst")
