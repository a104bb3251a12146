"""Open-loop client."""

import pytest

from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.nic.rss import RssDistributor
from repro.sim.rng import RandomStreams
from repro.units import MS, US
from repro.workload.client import OpenLoopClient
from repro.workload.request import Request
from repro.workload.shapes import ConstantLoad


@pytest.fixture
def nic(sim):
    nic = MultiQueueNic(sim, n_queues=1,
                        rss=RssDistributor(1, mode="round-robin"),
                        wire_latency_ns=5 * US)
    nic.bind(0, lambda q: None)
    nic.disable_irq(0)  # just collect packets
    return nic


def make_client(sim, nic, rps=10_000, seed=4):
    return OpenLoopClient(sim, nic, ConstantLoad(rps),
                          RandomStreams(seed).numpy_stream("client"),
                          wire_latency_ns=5 * US)


def test_sends_expected_count(sim, nic):
    client = make_client(sim, nic)
    n = client.start(100 * MS)
    sim.run_until(200 * MS)
    assert client.sent == n
    assert nic.rx_packets == n
    assert n == pytest.approx(1000, rel=0.2)


def test_packets_carry_requests_with_creation_times(sim, nic):
    client = make_client(sim, nic)
    client.start(50 * MS)
    sim.run_until(100 * MS)
    pkt = nic.queues[0].pop_rx()
    # The request is its own data packet, stamped at creation: the
    # first scheduled arrival, which reached the NIC one wire latency
    # later.
    assert isinstance(pkt, Request)
    assert pkt.created_ns == client._arrivals[0]


def test_on_response_records_latency(sim, nic):
    client = make_client(sim, nic)
    client.start(50 * MS)
    sim.run_until(100 * MS)
    pkt = nic.queues[0].pop_rx()
    sim.run_until(sim.now + 1 * MS)
    client.on_response(pkt)  # the response is the request it answers
    latencies = client.latencies_ns()
    assert latencies.size == 1
    assert latencies[0] == sim.now - pkt.created_ns
    assert client.completed == 1


def test_response_without_request_is_ignored(sim, nic):
    client = make_client(sim, nic)
    # A bare ACK is the only packet that is not a request.
    client.on_response(Packet(flow_id=0, size_bytes=64))
    assert client.completed == 0


def test_open_loop_never_blocks_on_responses(sim, nic):
    client = make_client(sim, nic)
    client.start(100 * MS)
    sim.run_until(200 * MS)
    # No responses were ever sent, yet every request went out.
    assert client.sent > 0
    assert client.completed == 0


def test_completion_times_align_with_latencies(sim, nic):
    client = make_client(sim, nic)
    client.start(20 * MS)
    sim.run_until(50 * MS)
    for _ in range(3):
        client.on_response(nic.queues[0].pop_rx())
    assert client.completion_times_ns().size == client.latencies_ns().size


# -- feed_arrivals: the fleet-embedding mode ------------------------------- #

def test_feed_arrivals_delivers_like_a_schedule(sim, nic):
    client = make_client(sim, nic)
    client.feed_arrivals([0, 1 * MS, 2 * MS])
    sim.run_until(10 * MS)
    assert client.sent == 3
    assert nic.rx_packets == 3


def test_feed_arrivals_rejects_out_of_order_batches(sim, nic):
    client = make_client(sim, nic)
    client.feed_arrivals([0, 2 * MS])
    with pytest.raises(ValueError, match="time order"):
        client.feed_arrivals([1 * MS])


def test_feed_arrivals_rearms_a_drained_doorbell(sim, nic):
    client = make_client(sim, nic)
    client.feed_arrivals([1 * MS])
    sim.run_until(5 * MS)
    assert client.sent == 1
    client.feed_arrivals([6 * MS])  # schedule was exhausted: must re-arm
    sim.run_until(10 * MS)
    assert client.sent == 2
    assert nic.rx_packets == 2


def test_feed_arrivals_while_armed_extends_without_double_arming(sim, nic):
    client = make_client(sim, nic)
    client.feed_arrivals([5 * MS])
    client.feed_arrivals([6 * MS])  # doorbell still pending
    sim.run_until(10 * MS)
    assert client.sent == 2
    assert nic.rx_packets == 2


def test_feed_empty_batch_is_a_noop(sim, nic):
    client = make_client(sim, nic)
    client.feed_arrivals([])
    sim.run_until(1 * MS)
    assert client.sent == 0
