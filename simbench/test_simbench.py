"""Self-tests of the benchmark: ``python -m pytest simbench``."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
from ledger import LAYERS, Ledger, layer_for_module  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.sim.event import EventQueue  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.units import MS  # noqa: E402

SHORT_NS = 20 * MS


class Clock:
    """A hand-advanced nanosecond clock."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_parent_self_time_is_inclusive_minus_children():
    clock = Clock()
    ledger = Ledger(clock)

    def inner():
        clock.now += 5

    inner = ledger.timed("cpu", inner)

    def outer():
        clock.now += 3
        inner()
        clock.now += 2
        inner()

    outer = ledger.timed("nic", outer)

    def root():
        clock.now += 1
        outer()

    ledger.measure(root)
    assert ledger.self_ns["cpu"] == 10 and ledger.calls["cpu"] == 2
    assert ledger.self_ns["nic"] == (3 + 5 + 2 + 5) - 10
    assert ledger.self_ns["bench"] == 1
    assert ledger.inclusive_ns["bench"] == 16
    assert sum(ledger.self_ns.values()) == ledger.inclusive_ns["bench"]


def test_ledger_flags_time_outside_every_layer():
    clock = Clock()
    ledger = Ledger(clock)

    def work():
        clock.now += 100

    work = ledger.timed("cpu", work)

    def root(outside_ns):
        clock.now += outside_ns
        work()

    ledger.measure(root, 1)
    assert ledger.errors() == []
    ledger.measure(root, 50)  # 51 of 251 ns in no layer
    assert ledger.errors()


def test_kernel_callbacks_are_charged_to_their_owner_module():
    Owner = type("Owner", (), {"__module__": "repro.cpu.core",
                               "tick": lambda self: None})
    owner = Owner()
    run_until = Simulator.__dict__["run_until"]
    push = EventQueue.__dict__["push"]
    ledger = Ledger()
    ledger.install()
    try:
        sim = Simulator(sanitize=False)
        for t in range(10):
            sim.schedule(t, owner.tick)
        timer = sim.every(3, owner.tick)
        ledger.measure(sim.run_until, 20)
        timer.stop()
    finally:
        ledger.uninstall()
    assert Simulator.__dict__["run_until"] is run_until
    assert EventQueue.__dict__["push"] is push
    assert ledger.calls["cpu"] == 10 + 6  # direct events + timer ticks
    assert ledger.calls["sim"] == 1
    assert sim.events_processed == 16
    assert not ledger._stack


def test_module_layers():
    assert layer_for_module("repro.netstack.napi") == "netstack"
    assert layer_for_module("repro.system") == "system"
    assert layer_for_module("repro.sim.trace") == "obs"
    assert layer_for_module("repro.baselines.parties") == "governors"
    assert layer_for_module("builtins") == "sim"


@pytest.fixture
def cache(tmp_path):
    run.fresh_cache(tmp_path / "cache")
    yield tmp_path / "cache"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digest_equals_untraced(name, cache):
    workload = WORKLOADS[name]
    shards = 1 if workload.fleet else None
    untraced = workload.run(1, SHORT_NS, shards)
    run.fresh_cache(cache)
    ledger = Ledger()
    ledger.install()
    try:
        traced = ledger.measure(workload.run, 1, SHORT_NS, shards)
    finally:
        ledger.uninstall()
    assert check.digest(traced) == check.digest(untraced)
    assert not check.invariant_errors(traced)
    assert ledger.errors() == []
    assert ledger.calls["sim"] > 0 and ledger.calls["cpu"] > 0


@pytest.mark.parametrize("name", ["memcached-changing", "fleet-failover"])
def test_timed_probes_keep_the_digest(name, cache, tmp_path):
    workload = WORKLOADS[name]
    plain = workload.run(1, SHORT_NS)
    probes = run.Probes(tmp_path)
    probes.install(workload.fleet)
    try:
        run.fresh_cache(cache)
        probed = workload.run(1, SHORT_NS)
    finally:
        probes.uninstall()
    assert probes.first_event is not None
    assert check.digest(probed) == check.digest(plain)


@pytest.mark.parametrize("name", ["bypass-steered", "fleet-failover"])
def test_setup_probe_stops_each_cell_at_its_first_event(name):
    # A fresh interpreter runs the real entry point up to the first event
    # of each cell (two servers; an in-process fleet).
    setup_s = run.measure_setup(name, 1)
    assert 0 < setup_s < 60


def test_host_probe_walk_is_fixed():
    from hostspeed import HostProbe
    probe = HostProbe()
    # The same walk on every commit: nothing but the host can move it.
    assert probe._walk() == HostProbe()._walk()
    assert probe.seconds(passes=1) > 0


def test_fleet_digest_is_shard_count_invariant(cache):
    workload = WORKLOADS["fleet-failover"]
    sharded = workload.run(1, SHORT_NS, shards=2)
    run.fresh_cache(cache)
    serial = workload.run(1, SHORT_NS, shards=1)
    assert sharded[0].perf.shards == 2 and serial[0].perf.shards == 1
    assert check.digest(sharded) == check.digest(serial)


def test_perturbed_results_fail_the_check(cache, monkeypatch, tmp_path):
    workload = WORKLOADS["nginx-observed"]
    results = workload.run(3, SHORT_NS)
    good = check.digest(results)
    assert check.check(workload.name, 3, results, expected=good) == []

    result = results[0]
    energy = result.energy
    nudged = dataclasses.replace(result, energy=dataclasses.replace(
        energy, package_j=energy.package_j * (1 + 1e-15) + 1e-15))
    assert check.check(workload.name, 3, [nudged], expected=good)

    inverted = dataclasses.replace(result, energy=dataclasses.replace(
        energy, cores_j=energy.package_j * 2))
    assert check.invariant_errors([inverted])

    truncated = dataclasses.replace(result,
                                    latencies_ns=result.latencies_ns[1:])
    assert check.invariant_errors([truncated])

    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({workload.name: {"3": "0" * 64}}))
    monkeypatch.setattr(check, "PINS_PATH", pins)
    assert check.check(workload.name, 3, results)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.per_layer_metrics())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {f"{layer}.self_s" for layer in LAYERS} <= \
        {m["name"] for m in spec["per_layer"]}


def test_pins_cover_default_and_held_out_seeds():
    pins = check.load_pins()
    for name in WORKLOADS:
        assert set(pins[name]) == {str(check.DEFAULT_SEED),
                                   str(check.HELD_OUT_SEED)}
