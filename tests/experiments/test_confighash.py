"""Stable config hashing (the cache key of every run)."""

import dataclasses

import numpy as np
import pytest

import repro.experiments.confighash as confighash
from repro.cluster.fleet import FleetConfig
from repro.cluster.health import HealthPolicy
from repro.experiments.confighash import (MODEL_VERSION, canonicalize,
                                          config_digest, run_key)
from repro.faults.plan import KIND_THROTTLE, FaultPlan, FaultWindow
from repro.netstack.stack import StackConfig
from repro.obs.monitors import KIND_SLO_BURN, MonitorSpec
from repro.obs.timeline import TimelineConfig
from repro.p4.program import (FIELD_SESSION, PipelineProgram, TableEntry,
                              TableStage)
from repro.system import ServerConfig
from repro.workload.retry import RetryPolicy
from repro.units import MS


def test_equal_configs_hash_identically():
    a = ServerConfig(app="nginx", load_level="low", n_cores=2, seed=9)
    b = ServerConfig(seed=9, n_cores=2, load_level="low", app="nginx")
    assert a == b
    assert config_digest(a) == config_digest(b)
    assert run_key(a, 20 * MS) == run_key(b, 20 * MS)


def test_dict_insertion_order_does_not_matter():
    a = ServerConfig(app_params={"x": 1, "y": 2},
                     freq_governor_params={"up": 0.8, "down": 0.2})
    b = ServerConfig(app_params={"y": 2, "x": 1},
                     freq_governor_params={"down": 0.2, "up": 0.8})
    assert run_key(a, 20 * MS) == run_key(b, 20 * MS)


def test_any_field_change_changes_key():
    base = ServerConfig()
    key = run_key(base, 20 * MS)
    assert run_key(base.with_overrides(seed=1), 20 * MS) != key
    assert run_key(base.with_overrides(n_cores=4), 20 * MS) != key
    assert run_key(base.with_overrides(app_params={"z": 1}), 20 * MS) != key
    assert run_key(base, 21 * MS) != key


def test_model_version_namespaces_keys(monkeypatch):
    base = ServerConfig()
    key = confighash.run_key(base, MS)
    monkeypatch.setattr(confighash, "MODEL_VERSION",
                        MODEL_VERSION + "-other")
    assert confighash.run_key(base, MS) != key


def test_canonicalize_primitives_and_numpy():
    assert canonicalize(np.int64(5)) == 5
    assert canonicalize(np.float64(1.5)) == 1.5
    assert (canonicalize(np.array([1, 2, 3]))
            == canonicalize(np.array([1, 2, 3])))
    assert (canonicalize(np.array([1, 2, 3]))
            != canonicalize(np.array([1, 2, 4])))
    assert canonicalize({"b": 1, "a": 2}) == canonicalize({"a": 2, "b": 1})
    assert canonicalize((1, "x")) == canonicalize([1, "x"])


def test_plain_objects_canonicalize_by_class_and_state():
    class Shape:
        def __init__(self, rate):
            self.rate = rate

    assert canonicalize(Shape(10)) == canonicalize(Shape(10))
    assert canonicalize(Shape(10)) != canonicalize(Shape(11))


# --------------------------------------------------------------------- #
# Every dataclass field is part of the key
# --------------------------------------------------------------------- #

def test_registry_digests_are_pinned():
    """Digests only move when the config schema does.

    Re-pinned for MODEL_VERSION 2026.10-heap-compaction (the config
    schema is unchanged; the bump retires cached results whose
    telemetry carries the uncompacted heap peak and the events
    scheduled and cancelled before completion-time starts were
    deferred).
    Any further drift without a schema change or a MODEL_VERSION bump
    silently invalidates every cached run key.
    """
    server = ServerConfig(app="memcached", seed=7)
    assert config_digest(server) == (
        "19fc40a01c90059f0c7de8b27f859e33c34192241d5593ed1f85cdc8cdd694ff")
    fleet = FleetConfig(node=server, n_nodes=3, seed=11)
    assert config_digest(fleet) == (
        "6626c007b6472e841fd3c63194b53ea2e04ada29582d03aa1469df3a54107fdf")
    assert run_key(server, 1_000_000) == (
        "21a2173354f3dd8450a13cf3b83352ccc80e0b81e8032236fb5660176c5277c1")


#: One instance of each config class a run key covers.
CONFIGS = {
    "ServerConfig": lambda: ServerConfig(),
    "FleetConfig": lambda: FleetConfig(),
    "TimelineConfig": lambda: TimelineConfig(),
    "MonitorSpec": lambda: MonitorSpec(kind=KIND_SLO_BURN),
    "FaultPlan": lambda: FaultPlan(),
    "FaultWindow": lambda: FaultWindow(kind=KIND_THROTTLE, start_ns=0,
                                       end_ns=MS),
    "StackConfig": lambda: StackConfig(),
    "PipelineProgram": lambda: PipelineProgram(),
    "TableStage": lambda: TableStage(name="steer"),
    "TableEntry": lambda: TableEntry(field=FIELD_SESSION, value=1,
                                     queue=0),
    "RetryPolicy": lambda: RetryPolicy(),
    "HealthPolicy": lambda: HealthPolicy(),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_class_hashes_every_field_in_definition_order(name):
    config = CONFIGS[name]()
    assert type(config).__name__ == name
    cls_name, fields = canonicalize(config)
    assert cls_name == name
    assert tuple(f for f, _ in fields) == tuple(
        f.name for f in dataclasses.fields(config))


def test_unregistered_dataclasses_hash_generically():
    @dataclasses.dataclass(frozen=True)
    class Local:
        x: int = 1

    assert config_digest(Local(x=1)) == config_digest(Local(x=1))
    assert config_digest(Local(x=1)) != config_digest(Local(x=2))
