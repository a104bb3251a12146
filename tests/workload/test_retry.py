"""Client timeout/retry machinery: RetryPolicy, open- and closed-loop."""

import pytest

from repro.nic.nic import MultiQueueNic
from repro.nic.rss import RssDistributor
from repro.sim.rng import RandomStreams
from repro.units import MS, US
from repro.workload.client import OpenLoopClient
from repro.workload.closed_loop import ClosedLoopClient
from repro.workload.retry import RetryPolicy
from repro.workload.shapes import ConstantLoad


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(timeout_ns=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_ns=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_cap_ns=0)


def test_backoff_grows_exponentially_then_caps():
    policy = RetryPolicy(backoff_base_ns=100, backoff_factor=2.0,
                         backoff_cap_ns=350)
    assert policy.backoff_ns(0) == 100
    assert policy.backoff_ns(1) == 200
    assert policy.backoff_ns(2) == 350  # capped
    assert policy.backoff_ns(10) == 350


@pytest.fixture
def nic(sim):
    nic = MultiQueueNic(sim, n_queues=1,
                        rss=RssDistributor(1, mode="round-robin"),
                        wire_latency_ns=5 * US)
    nic.bind(0, lambda q: None)
    nic.disable_irq(0)  # just collect packets
    return nic


def _make_client(sim, nic, retry, rps=5_000):
    return OpenLoopClient(sim, nic, ConstantLoad(rps),
                          RandomStreams(4).numpy_stream("client"),
                          wire_latency_ns=5 * US, retry=retry)


def test_unanswered_requests_time_out_retry_then_give_up(sim, nic):
    retry = RetryPolicy(timeout_ns=1 * MS, max_retries=2,
                        backoff_base_ns=100 * US)
    client = _make_client(sim, nic, retry)
    client.start(10 * MS)
    sim.run_until(100 * MS)  # nobody ever responds
    assert client.sent > 0
    assert client.retries == 2 * client.sent
    assert client.gave_up == client.sent
    assert client.timed_out == 3 * client.sent  # original + 2 retries
    assert client.completed == 0


def test_response_before_timeout_cancels_the_timer(sim, nic):
    retry = RetryPolicy(timeout_ns=5 * MS, max_retries=2)
    client = _make_client(sim, nic, retry)
    client.feed_arrivals([0])
    sim.run_until(1 * MS)
    request = nic.queues[0].pop_rx()
    client.on_response(request)  # the response is the request it answers
    sim.run_until(50 * MS)
    assert client.completed == 1
    assert client.timed_out == 0
    assert client.retries == 0


def test_duplicate_responses_are_discarded(sim, nic):
    retry = RetryPolicy(timeout_ns=5 * MS)
    client = _make_client(sim, nic, retry)
    client.feed_arrivals([0])
    sim.run_until(1 * MS)
    response = nic.queues[0].pop_rx()
    client.on_response(response)
    client.on_response(response)  # a retransmission's answer, late
    assert client.completed == 1
    assert client.duplicates == 1


def test_retried_latency_is_anchored_at_original_creation(sim, nic):
    retry = RetryPolicy(timeout_ns=1 * MS, max_retries=3,
                        backoff_base_ns=100 * US)
    client = _make_client(sim, nic, retry)
    client.feed_arrivals([0])
    sim.run_until(3 * MS)  # first attempt timed out, retransmitted
    assert client.retries >= 1
    # Answer the retransmitted copy.
    original = nic.queues[0].pop_rx()  # original attempt
    retransmit = nic.queues[0].pop_rx()
    assert retransmit is original  # the same request goes back out
    client.on_response(retransmit)
    # Latency covers the failed attempt too: anchored at creation (t=0).
    assert client.latencies_ns()[0] == sim.now


def test_retry_none_arms_no_timers(sim, nic):
    client = _make_client(sim, nic, None)
    client.start(20 * MS)
    sim.run_until(200 * MS)  # far past any would-be timeout
    assert client.sent > 0
    assert client.timed_out == 0
    assert client.retries == 0
    assert client.gave_up == 0


def test_closed_loop_timeouts_keep_chains_alive(sim, nic):
    retry = RetryPolicy(timeout_ns=1 * MS, max_retries=1,
                        backoff_base_ns=100 * US)
    client = ClosedLoopClient(sim, nic, concurrency=4,
                              rng=RandomStreams(4).numpy_stream("client"),
                              wire_latency_ns=5 * US, retry=retry)
    client.start(50 * MS)
    sim.run_until(100 * MS)  # nobody responds: every chain churns
    # Without the give-up-respawn, sent would stay at 4 forever.
    assert client.sent > 4
    assert client.gave_up > 0


def test_closed_loop_duplicate_responses_are_discarded(sim, nic):
    retry = RetryPolicy(timeout_ns=5 * MS)
    client = ClosedLoopClient(sim, nic, concurrency=1,
                              rng=RandomStreams(4).numpy_stream("client"),
                              wire_latency_ns=5 * US, retry=retry)
    client.start(10 * MS)
    sim.run_until(1 * MS)
    response = nic.queues[0].pop_rx()
    client.on_response(response)
    client.on_response(response)
    assert client.completed == 1
    assert client.duplicates == 1
