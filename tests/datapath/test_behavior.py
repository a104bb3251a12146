"""Behavioural contracts of the bypass backends and the registry."""

import pytest

from repro.datapath import (MODE_BUSY_POLL, MODE_INTERMITTENT, RX_BACKENDS,
                            make_rx_backend)
from repro.datapath.metronome import MetronomeThread
from repro.system import ServerConfig, ServerSystem
from repro.units import MS

DURATION = 40 * MS


def _run_system(datapath: str, governor: str, **overrides):
    base = dict(app="memcached", load_level="medium", n_cores=2,
                freq_governor=governor, seed=5, datapath=datapath)
    base.update(overrides)
    system = ServerSystem(ServerConfig(**base))
    return system, system.run(DURATION)


# -- registry ----------------------------------------------------------- #

def test_registry_lists_all_backends():
    assert set(RX_BACKENDS) == {"napi", "poll", "metronome", "nmap-hybrid"}


def test_unknown_backend_name_raises():
    with pytest.raises(ValueError, match="unknown datapath"):
        make_rx_backend("xdp", stack=None)


def test_bad_backend_params_raise():
    with pytest.raises(ValueError, match="burst_size"):
        ServerSystem(ServerConfig(n_cores=2, datapath="poll",
                                  datapath_params={"burst_size": 0}))
    with pytest.raises(ValueError, match="n_poll_cores"):
        ServerSystem(ServerConfig(n_cores=2, datapath="poll",
                                  datapath_params={"n_poll_cores": 0}))
    with pytest.raises(ValueError, match="worker core"):
        ServerSystem(ServerConfig(n_cores=2, datapath="poll",
                                  datapath_params={"n_poll_cores": 2}))
    with pytest.raises(ValueError, match="initial_sleep_ns"):
        ServerSystem(ServerConfig(n_cores=2, datapath="metronome",
                                  datapath_params={"initial_sleep_ns": 1}))


@pytest.mark.parametrize("name", ["min_sleep_ns", "timer_resolution_ns",
                                  "overshoot_ns", "overshoot_jitter_ns"])
def test_non_int_metronome_timer_params_raise(name):
    """The retrieval timer is pushed straight onto the integer clock."""
    for datapath, governor in (("metronome", "ondemand"),
                               ("nmap-hybrid", "nmap")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            ServerSystem(ServerConfig(n_cores=2, datapath=datapath,
                                      freq_governor=governor,
                                      datapath_params={name: 2_000.0}))


# -- governor coupling -------------------------------------------------- #

def test_hybrid_requires_nmap_family_governor():
    with pytest.raises(ValueError, match="NMAP-family"):
        ServerSystem(ServerConfig(n_cores=2, freq_governor="ondemand",
                                  datapath="nmap-hybrid"))


def test_sharded_fleet_rejects_hybrid_without_nmap_at_construction():
    from repro.cluster import FleetConfig, FleetSystem
    node = ServerConfig(datapath="nmap-hybrid", freq_governor="ondemand")
    with pytest.raises(ValueError, match="NMAP-family"):
        FleetSystem(FleetConfig(node=node, n_nodes=2, shards=2))


def test_hybrid_accepts_nmap_adaptive():
    system = ServerSystem(ServerConfig(n_cores=2,
                                       freq_governor="nmap-adaptive",
                                       datapath="nmap-hybrid"))
    for thread in system.datapath.threads:
        assert thread.engine is not None


def test_nmap_simpl_rejects_bypass_backends():
    """nmap-simpl reads ksoftirqd wake signals — kernel path only."""
    with pytest.raises(ValueError, match="nmap-simpl"):
        ServerSystem(ServerConfig(n_cores=2, freq_governor="nmap-simpl",
                                  datapath="poll"))


def test_nmap_governor_runs_on_every_backend():
    """The monitor duck-types the mode source, so NMAP DVFS works on
    bypass backends too (listeners see canonical interrupt/polling)."""
    for datapath in ("poll", "metronome", "nmap-hybrid"):
        _, result = _run_system(datapath, "nmap")
        assert result.completed > 0


# -- poll backend ------------------------------------------------------- #

def test_poll_core_hosts_no_worker_and_never_idles():
    system, result = _run_system("poll", "performance")
    assert system.datapath.worker_core_ids() == [1]
    assert [w.core_id for w in system.workers] == [1]
    poll_core = system.processor.cores[0]
    # The spin loop keeps the core in CC0 for the entire run (including
    # the drain window): full active power around the clock — the
    # busy-poll tax.
    assert poll_core.cstate_residency_ns["CC0"] >= DURATION
    assert all(poll_core.cstate_residency_ns[s] == 0
               for s in poll_core.cstate_residency_ns if s != "CC0")
    assert result.telemetry.sum_of("ksoftirqd_wakeups_total") == 0
    assert result.sleep_wakes == 0
    assert result.datapath_pkts == {MODE_BUSY_POLL: result.completed}


def test_poll_costs_more_energy_than_napi():
    _, bypass = _run_system("poll", "performance")
    _, kernel = _run_system("napi", "performance")
    assert bypass.energy_j > kernel.energy_j


def test_poll_beats_napi_latency():
    """No irq/softirq machinery and immediate doorbell pickup: the
    latency floor that motivates busy polling."""
    _, bypass = _run_system("poll", "performance")
    _, kernel = _run_system("napi", "performance")
    assert bypass.p99_ns < kernel.p99_ns


# -- metronome backend -------------------------------------------------- #

def test_metronome_sleep_stays_within_bounds():
    params = {"min_sleep_ns": 10_000, "max_sleep_ns": 80_000,
              "initial_sleep_ns": 20_000}
    system, result = _run_system("metronome", "ondemand",
                                 datapath_params=params)
    assert result.sleep_wakes > 0
    for thread in system.datapath.threads:
        assert 10_000 <= thread.sleep_ns <= 80_000


def test_metronome_timer_never_fires_early(sim, make_core):
    """hr_sleep semantics: grid quantization + overshoot land the fire
    strictly at/after request + overshoot, never before."""
    from repro.osched.scheduler import CoreScheduler

    class _Backend:  # the minimum MetronomeThread needs to arm timers
        min_sleep_ns = 5_000
        max_sleep_ns = 200_000
        initial_sleep_ns = 7_300
        sleep_multiplier = 2.0
        timer_resolution_ns = 1_000
        overshoot_ns = 2_000
        overshoot_jitter_ns = 1_000
        adaptive = False

        class stack:
            pass

    _Backend.stack.sim = sim
    sched = CoreScheduler(sim, make_core(0))

    class _Rng:
        def random(self):
            return 0.999

    thread = MetronomeThread(_Backend(), sched, 0, _Rng())
    thread.arm_timer()
    # An event's fire time lives in its heap entry.
    fire_at = next(time for time, _, ev in sim.queue._heap
                   if ev is thread._timer_ev)
    requested = 7_300
    quantized = 8_000  # ceil to the 1 µs grid
    assert fire_at >= sim.now + requested + 2_000
    assert quantized + 2_000 <= fire_at <= quantized + 2_000 + 1_000


def test_metronome_trades_latency_for_energy():
    _, sleepy = _run_system("metronome", "ondemand")
    _, bypass = _run_system("poll", "performance")
    assert sleepy.energy_j < bypass.energy_j
    assert sleepy.p99_ns > bypass.p99_ns


# -- telemetry & timeline ----------------------------------------------- #

def test_datapath_counters_exported_per_backend():
    _, result = _run_system("poll", "performance")
    reg = result.telemetry
    total = sum(
        reg.value("datapath_pkts_total", subsystem="datapath",
                  backend="poll", core=str(cid), mode=MODE_BUSY_POLL)
        for cid in (0,))
    assert total == result.datapath_pkts[MODE_BUSY_POLL]
    assert reg.value("datapath_empty_polls_total", subsystem="datapath",
                     backend="poll", core="0") > 0

    _, result = _run_system("metronome", "ondemand")
    reg = result.telemetry
    wakes = sum(
        reg.value("datapath_sleep_wakes_total", subsystem="datapath",
                  backend="metronome", core=str(cid)) for cid in (0, 1))
    assert wakes == result.sleep_wakes
    assert result.datapath_pkts[MODE_INTERMITTENT] > 0


def test_timeline_columns_track_backend_modes():
    from repro.obs.timeline import TimelineConfig

    # Result totals include the post-duration drain window, which the
    # timeline does not sample — spin loops and timer wakes keep
    # accumulating there, so window sums are a (large) lower bound.
    _, result = _run_system("poll", "performance",
                            timeline=TimelineConfig(interval_ns=5 * MS))
    node = result.timeline.node()
    assert int(node.series("pkts_busy_poll").sum()) == \
        result.datapath_pkts[MODE_BUSY_POLL]
    assert int(node.series("pkts_interrupt").sum()) == 0
    loops = int(node.series("poll_loops").sum())
    assert 0 < loops <= result.poll_loops
    assert int(node.series("sleep_wakes").sum()) == 0
    assert int(node.series("p4_hits").sum()) == 0  # no program

    _, result = _run_system("metronome", "ondemand",
                            timeline=TimelineConfig(interval_ns=5 * MS))
    node = result.timeline.node()
    assert int(node.series("pkts_intermittent").sum()) == \
        result.datapath_pkts[MODE_INTERMITTENT]
    wakes = int(node.series("sleep_wakes").sum())
    assert 0 < wakes <= result.sleep_wakes

    _, result = _run_system("nmap-hybrid", "nmap",
                            timeline=TimelineConfig(interval_ns=5 * MS))
    node = result.timeline.node()
    for mode in (MODE_INTERMITTENT, "polling"):
        column = "pkts_" + mode
        assert 0 < int(node.series(column).sum()) <= \
            result.datapath_pkts[mode]
    assert int(node.series("pkts_interrupt").sum()) == 0
    assert int(node.series("pkts_busy_poll").sum()) == 0
    wakes = int(node.series("sleep_wakes").sum())
    assert 0 < wakes <= result.sleep_wakes

    # An ACL dropping session 0: its table hits (and drops) that
    # session's packets and misses everyone else's.
    from repro.p4.library import drop_program
    from repro.p4.program import FIELD_SESSION

    _, result = _run_system("napi", "performance", n_flows=4,
                            pipeline=drop_program(FIELD_SESSION, [0]),
                            timeline=TimelineConfig(interval_ns=5 * MS))
    node = result.timeline.node()
    reg = result.telemetry
    for column, total in (
            ("p4_hits", reg.total("p4_table_hits_total")),
            ("p4_misses", reg.total("p4_table_misses_total")),
            ("p4_drops", reg.value("p4_packets_total", subsystem="p4",
                                   verdict="dropped"))):
        assert 0 < int(node.series(column).sum()) <= total


def test_faulty_nic_still_rings_the_doorbell():
    """The fault injector shadows NIC.receive in the instance dict and
    delegates to the class method — the poll doorbell must survive."""
    from repro.faults.scenarios import make_plan

    plan = make_plan("loss-burst", DURATION)
    _, result = _run_system("poll", "performance", fault_plan=plan)
    assert result.completed > 0
    assert result.datapath_pkts[MODE_BUSY_POLL] > 0
