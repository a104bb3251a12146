"""FaultInjector behavior, one fault kind at a time.

Each test runs a small seeded system with a single-kind plan and checks
the fault's observable signature (drops, storm ticks, caps, hogs) plus
the restore discipline: after the window, every shadow/cap/model is
back to its healthy state.
"""

import pytest

from repro.faults.inject import _StuckLatencyModel
from repro.faults.plan import FaultPlan, FaultWindow
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from repro.workload.retry import RetryPolicy

DURATION = 40 * MS


def _system(plan, retry=None, **overrides):
    base = dict(app="memcached", load_level="medium",
                freq_governor="nmap", n_cores=2, seed=7,
                fault_plan=plan, retry=retry)
    base.update(overrides)
    return ServerSystem(ServerConfig(**base))


def _run(plan, retry=None, **overrides):
    system = _system(plan, retry=retry, **overrides)
    return system, system.run(DURATION)


def test_healthy_config_builds_no_injector():
    system = _system(None)
    assert system.faults is None
    system = _system(FaultPlan())  # empty plan == no plan
    assert system.faults is None


def test_nic_loss_drops_and_corrupts():
    plan = FaultPlan([FaultWindow("nic-loss", 5 * MS, 25 * MS,
                                  prob=0.3, corrupt_prob=0.1)])
    system, result = _run(plan)
    faults = system.faults
    assert faults.rx_dropped > 0
    assert faults.rx_corrupted > 0
    # Both outcomes discard before the RX ring: the client saw them
    # as drops.
    assert result.dropped >= faults.rx_dropped + faults.rx_corrupted
    assert result.completed < result.sent


def test_nic_loss_with_retry_recovers_most_drops():
    plan = FaultPlan([FaultWindow("nic-loss", 5 * MS, 25 * MS, prob=0.3)])
    # 5 retries: P(all 6 attempts dropped) = 0.3^6 ~ 0.07%.
    system, result = _run(plan, retry=RetryPolicy(max_retries=5))
    client = system.client
    assert client.retries > 0
    # Retransmissions recover nearly everything a 30% burst loses.
    assert result.completed > 0.995 * result.sent


def test_nic_loss_restores_the_class_receive_method():
    plan = FaultPlan([FaultWindow("nic-loss", 5 * MS, 10 * MS, prob=0.5)])
    system, _ = _run(plan)
    # The instance-dict shadow must be gone after the window.
    assert "receive" not in vars(system.nic)


def test_node_crash_blackholes_and_parks():
    plan = FaultPlan([FaultWindow("node-crash", 10 * MS, 25 * MS)])
    system, result = _run(plan)
    assert system.faults.crash_rx_dropped > 0
    assert "receive" not in vars(system.nic)
    # No completions dated inside the blackout (responses already in
    # flight may land in its first instants; allow a small grace).
    times = result.completion_times_ns
    grace = MS
    blackout = (times > 10 * MS + grace) & (times < 25 * MS)
    assert not blackout.any()


def test_queue_overflow_forces_ring_drops_and_restores_capacity():
    baseline_capacity = _system(None).nic.queues[0].rx_capacity
    plan = FaultPlan([FaultWindow("queue-overflow", 5 * MS, 30 * MS,
                                  rx_capacity=1)])
    system, result = _run(plan, load_level="high")
    assert result.dropped > 0
    for queue in system.nic.queues:
        assert queue.rx_capacity == baseline_capacity


def test_irq_storm_burns_cycles():
    plan = FaultPlan([FaultWindow("irq-storm", 5 * MS, 30 * MS,
                                  rate_hz=50_000.0, cycles=2_000.0)])
    _, healthy = _run(None)
    system, stormy = _run(plan)
    # 25 ms at 50 kHz = ~1250 ticks.
    assert system.faults.storm_ticks == pytest.approx(1250, rel=0.05)
    assert stormy.energy_j > healthy.energy_j


def test_throttle_caps_then_restores():
    plan = FaultPlan([FaultWindow("throttle", 5 * MS, 30 * MS,
                                  cap_index=999)])
    _, healthy = _run(None)
    system, throttled = _run(plan)
    assert system.processor.pstate_cap_index == 0  # lifted after window
    assert throttled.p99_ns > healthy.p99_ns


def test_dvfs_stuck_swaps_and_restores_the_latency_model():
    plan = FaultPlan([FaultWindow("dvfs-stuck", 5 * MS, 30 * MS,
                                  factor=8.0)])
    system, _ = _run(plan)
    for ctrl in system.processor.dvfs:
        assert not isinstance(ctrl.model, _StuckLatencyModel)


def test_core_offline_degrades_then_recovers():
    plan = FaultPlan([FaultWindow("core-offline", 10 * MS, 25 * MS,
                                  cores=(0,))])
    _, healthy = _run(None)
    _, degraded = _run(plan)
    assert degraded.p99_ns > healthy.p99_ns
    # The hog is removed at window end: the run still completes the
    # vast majority of requests (the survivors + post-recovery core 0).
    assert degraded.completed > 0.9 * degraded.sent


def test_fault_windows_record_trace_channels():
    plan = FaultPlan([FaultWindow("throttle", 5 * MS, 20 * MS,
                                  cap_index=999)])
    _, result = _run(plan, trace=True)
    assert "fault.throttle" in result.trace.channels()
    values = list(result.trace.to_arrays("fault.throttle")[1])
    assert values == [1, 0]


def test_fault_telemetry_counters():
    plan = FaultPlan([
        FaultWindow("nic-loss", 5 * MS, 15 * MS, prob=0.3),
        FaultWindow("irq-storm", 20 * MS, 30 * MS, rate_hz=10_000.0),
    ])
    _, result = _run(plan)
    reg = result.telemetry
    assert reg.value("fault_windows_total", subsystem="faults",
                     kind="nic-loss") == 1
    assert reg.value("fault_windows_total", subsystem="faults",
                     kind="irq-storm") == 1
    assert reg.value("fault_rx_dropped_total", subsystem="faults") > 0
    assert reg.value("fault_irq_storm_ticks_total",
                     subsystem="faults") > 0


def test_fault_channels_get_their_own_perfetto_process():
    from repro.obs.perfetto import perfetto_trace
    plan = FaultPlan([FaultWindow("throttle", 5 * MS, 20 * MS,
                                  cap_index=999)])
    _, result = _run(plan, trace=True)
    doc = perfetto_trace(result)
    fault_pids = {e["pid"] for e in doc["traceEvents"]
                  if e.get("name", "").startswith("fault.")}
    assert fault_pids == {3}
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e.get("name") == "process_name"]
    assert "fault injection" in names
