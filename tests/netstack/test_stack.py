"""NetworkStack wiring: delivery, responses, segmentation, ACK flood."""

import pytest

from repro.cpu.topology import Processor
from repro.netstack.stack import NetworkStack
from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.nic.rss import RssDistributor
from repro.obs.registry import TelemetryRegistry
from repro.units import MS
from repro.workload.request import Request


@pytest.fixture
def system(sim):
    processor = Processor(sim, n_cores=2)
    nic = MultiQueueNic(sim, n_queues=2,
                        rss=RssDistributor(2, mode="round-robin"))
    stack = NetworkStack(sim, processor, nic)
    responses = []
    stack.response_sink = responses.append
    return processor, nic, stack, responses


def test_one_napi_socket_scheduler_per_core(system):
    _, _, stack, _ = system
    assert len(stack.rx.napis) == 2
    assert len(stack.sockets) == 2
    assert len(stack.schedulers) == 2
    assert len(stack.rx.ksoftirqds) == 2


def test_rx_packet_lands_in_matching_socket(sim, system):
    _, nic, stack, _ = system
    request = Request(flow_id=1, created_ns=0)
    nic.receive(Packet(flow_id=1, size_bytes=128, created_ns=0,
                       request=request))
    sim.run_until(1 * MS)
    assert len(stack.sockets[1]) == 1
    assert len(stack.sockets[0]) == 0


def test_small_response_single_segment(sim, system):
    _, nic, stack, responses = system
    request = Request(flow_id=0, created_ns=0, response_bytes=200)
    stack.send_response(request, 0)
    sim.run_until(1 * MS)
    assert len(responses) == 1
    assert nic.queues[0].txc_enqueued == 1


def test_large_response_segments_and_acks(sim, system):
    _, nic, stack, _ = system
    # 5 MSS-sized segments; TCP client ACKs each one.
    request = Request(flow_id=0, created_ns=0,
                      response_bytes=5 * 1448, acked_response=True)
    stack.send_response(request, 0)
    sim.run_until(5 * MS)
    assert nic.queues[0].txc_enqueued == 5
    # The ACKs were consumed by NAPI, never delivered to a socket.
    assert nic.rx_packets == 5          # the 5 ACKs arrived
    assert nic.rx_data_packets == 0     # none of them were data


def test_unacked_response_generates_no_acks(sim, system):
    _, nic, stack, _ = system
    request = Request(flow_id=0, created_ns=0,
                      response_bytes=5 * 1448, acked_response=False)
    stack.send_response(request, 0)
    sim.run_until(5 * MS)
    assert nic.rx_packets == 0


def test_missing_sink_raises(sim):
    processor = Processor(sim, n_cores=1)
    nic = MultiQueueNic(sim, n_queues=1)
    stack = NetworkStack(sim, processor, nic)
    with pytest.raises(RuntimeError):
        stack.send_response(Request(flow_id=0, created_ns=0), 0)


def test_queue_core_count_mismatch_rejected(sim):
    processor = Processor(sim, n_cores=2)
    nic = MultiQueueNic(sim, n_queues=1)
    with pytest.raises(ValueError):
        NetworkStack(sim, processor, nic)


def test_aggregate_counters(sim, system):
    _, nic, stack, _ = system
    request = Request(flow_id=0, created_ns=0)
    nic.receive(Packet(flow_id=0, size_bytes=128, created_ns=0,
                       request=request))
    sim.run_until(1 * MS)
    reg = TelemetryRegistry()
    stack.rx.register_into(reg)
    stack.register_into(reg)
    assert reg.total("datapath_pkts_total") == 1
    assert reg.total("napi_pkts_total") == 1
    assert reg.total("socket_delivered_total") == 1
