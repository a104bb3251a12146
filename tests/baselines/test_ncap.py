"""Software NCAP baseline."""

import pytest

from repro.baselines.ncap import (NcapManager, STATE_BOOST, STATE_DECAY,
                                  STATE_NORMAL)
from repro.cpu.topology import Processor
from repro.governors.ondemand import OndemandGovernor
from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.nic.rss import RssDistributor
from repro.units import MS
from repro.workload.request import Request


@pytest.fixture
def setup(sim):
    proc = Processor(sim, n_cores=2)
    nic = MultiQueueNic(sim, n_queues=2,
                        rss=RssDistributor(2, mode="round-robin"))
    for q in range(2):
        nic.bind(q, lambda qid: None)
        nic.disable_irq(q)  # park packets; NCAP only reads counters
    fallbacks = [OndemandGovernor(sim, proc, cid) for cid in range(2)]
    manager = NcapManager(sim, proc, nic, fallbacks,
                          threshold_rps=100_000, period_ns=1 * MS)
    return proc, nic, manager


def inject(nic, count):
    for i in range(count):
        nic.receive(Request(flow_id=i, created_ns=0, size_bytes=100))


def test_boost_on_excessive_rate(sim, setup):
    proc, nic, manager = setup
    manager.start()
    inject(nic, 500)  # 500 pkts / 1 ms = 500 KRPS > 100 K
    sim.run_until(1 * MS + 500_000)  # just after the first window
    assert manager.state == STATE_BOOST
    assert manager.boosts == 1
    sim.run_until(2 * MS)
    assert all(c.pstate_index == 0 for c in proc.cores)


def test_boost_disables_sleep(sim, setup):
    proc, nic, manager = setup
    manager.start()
    inject(nic, 500)
    sim.run_until(1 * MS + 500_000)
    assert all(c.idle_governor is manager._disable_idle
               for c in proc.cores)


def test_ncap_menu_variant_keeps_idle_governor(sim):
    proc = Processor(sim, n_cores=1)
    nic = MultiQueueNic(sim, n_queues=1)
    nic.bind(0, lambda q: None)
    nic.disable_irq(0)
    sentinel = object()
    proc.cores[0].idle_governor = sentinel
    manager = NcapManager(sim, proc, nic,
                          [OndemandGovernor(sim, proc, 0)],
                          threshold_rps=1_000, period_ns=1 * MS,
                          disable_sleep_in_boost=False)
    manager.start()
    for i in range(500):
        nic.receive(Request(flow_id=0, created_ns=0, size_bytes=64))
    sim.run_until(1 * MS + 500_000)
    assert manager.state == STATE_BOOST
    assert proc.cores[0].idle_governor is sentinel


def test_quiet_windows_decay_then_release(sim, setup):
    proc, nic, manager = setup
    manager.start()
    inject(nic, 500)
    sim.run_until(1 * MS + 500_000)
    assert manager.state == STATE_BOOST
    sim.run_until(60 * MS)  # many quiet windows
    assert manager.state == STATE_NORMAL
    assert all(not gov.suspended for gov in manager.fallbacks)
    # Sleep governors restored.
    assert all(c.idle_governor is not manager._disable_idle
               for c in proc.cores)


def test_reboost_during_decay(sim, setup):
    proc, nic, manager = setup
    manager.start()
    inject(nic, 500)
    sim.run_until(1 * MS + 500_000)
    assert manager.state == STATE_BOOST
    sim.run_until(2 * MS + 500_000)  # one quiet window -> DECAY
    assert manager.state in (STATE_DECAY, STATE_NORMAL)
    inject(nic, 500)
    sim.run_until(3 * MS + 500_000)
    assert manager.state == STATE_BOOST


def test_acks_do_not_count_toward_threshold(sim, setup):
    proc, nic, manager = setup
    manager.start()
    for _ in range(500):
        nic.receive(Packet(flow_id=0, size_bytes=64))
    sim.run_until(3 * MS)
    assert manager.state == STATE_NORMAL


def test_validation(sim, setup):
    proc, nic, _ = setup
    with pytest.raises(ValueError):
        NcapManager(sim, proc, nic, [], threshold_rps=1)
    with pytest.raises(ValueError):
        NcapManager(sim, proc, nic,
                    [OndemandGovernor(sim, proc, 0)] * 2, threshold_rps=0)
