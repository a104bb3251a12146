"""Closed-loop client, and the open-vs-closed measurement contrast."""

import pytest

from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.closed_loop import ClosedLoopClient


def build_system(seed=12):
    config = ServerConfig(app="memcached", load_level="low",
                          freq_governor="powersave", n_cores=1, seed=seed)
    return ServerSystem(config)


def attach_closed_loop(system, concurrency):
    client = ClosedLoopClient(system.sim, system.nic, concurrency,
                              rng=None,
                              request_factory=system.app.request_factory())
    system.stack.response_sink = client.on_response
    return client


def test_maintains_concurrency_and_completes():
    system = build_system()
    client = attach_closed_loop(system, concurrency=4)
    client.start(50 * MS)
    system.sim.run_until(60 * MS)
    assert client.completed > 100
    # In-flight never exceeds concurrency.
    assert client.sent - client.completed <= 4


def test_self_throttles_under_overload():
    """The methodological point: closed-loop hides queueing collapse."""
    # Overloaded Pmin core (powersave) at high open-loop rate explodes;
    # the closed-loop client instead converges to service-rate throughput
    # with bounded latency.
    system = build_system()
    client = attach_closed_loop(system, concurrency=2)
    client.start(100 * MS)
    system.sim.run_until(120 * MS)
    latencies = client.latencies_ns()
    # Bounded: ~2 requests' worth of service + stack, far below the
    # multi-ms open-loop tails of an overloaded powersave core.
    assert latencies.max() < 1 * MS
    # Throughput is pinned near the service capacity, not the offered load.
    assert 0 < client.throughput_rps(100 * MS) < 200_000


def test_think_time_slows_issue_rate():
    fast_system = build_system()
    fast = attach_closed_loop(fast_system, 1)
    fast.start(50 * MS)
    fast_system.sim.run_until(60 * MS)

    slow_system = build_system()
    slow = ClosedLoopClient(slow_system.sim, slow_system.nic, 1, rng=None,
                            request_factory=slow_system.app.request_factory(),
                            think_time_ns=1 * MS)
    slow_system.stack.response_sink = slow.on_response
    slow.start(50 * MS)
    slow_system.sim.run_until(60 * MS)
    assert slow.completed < fast.completed


def test_stop_halts_chains():
    system = build_system()
    client = attach_closed_loop(system, 2)
    client.start(50 * MS)
    system.sim.run_until(10 * MS)
    client.stop()
    sent = client.sent
    system.sim.run_until(60 * MS)
    assert client.sent == sent


def test_validation():
    with pytest.raises(ValueError):
        ClosedLoopClient(None, None, 0, None)
    with pytest.raises(ValueError):
        ClosedLoopClient(None, None, 1, None, think_time_ns=-1)


def test_completion_after_deadline_does_not_reissue():
    system = build_system()
    client = attach_closed_loop(system, 1)
    client.start(10 * MS)
    system.sim.run_until(50 * MS)
    sent = client.sent
    # Everything in flight has drained; the chain died at the deadline.
    assert client.sent - client.completed == 0
    system.sim.run_until(80 * MS)
    assert client.sent == sent


def test_zero_think_time_reissues_at_completion_instant():
    system = build_system()
    client = attach_closed_loop(system, 1)
    client.start(50 * MS)
    system.sim.run_until(60 * MS)
    # With zero think time the next request is created the instant the
    # previous response lands: no inter-chain gap beyond service+stack.
    assert client.sent == client.completed  # one extra in flight at most
    assert client.completed > 50


def test_think_time_longer_than_run_sends_once_per_chain():
    system = build_system()
    client = ClosedLoopClient(system.sim, system.nic, 3, rng=None,
                              request_factory=system.app.request_factory(),
                              think_time_ns=200 * MS)
    system.stack.response_sink = client.on_response
    client.start(50 * MS)
    system.sim.run_until(100 * MS)
    assert client.sent == 3
    assert client.completed == 3


def test_response_without_request_is_ignored():
    from repro.nic.packet import Packet
    system = build_system()
    client = attach_closed_loop(system, 1)
    client.start(10 * MS)
    before = client.completed
    client.on_response(Packet(flow_id=1, size_bytes=64))
    assert client.completed == before


def test_throughput_requires_positive_duration():
    system = build_system()
    client = attach_closed_loop(system, 1)
    with pytest.raises(ValueError):
        client.throughput_rps(0)
