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

    Re-pinned for MODEL_VERSION 2026.10-model-telemetry (the config
    schema is unchanged; the bump retires cached results whose
    telemetry still carries the host wall-time and lockstep gauges).
    Any further drift without a schema change or a MODEL_VERSION bump
    silently invalidates every cached run key.
    """
    server = ServerConfig(app="memcached", seed=7)
    assert config_digest(server) == (
        "c9bdbb348308f2d7a2abd63019c1a13a4c539127cdc991e49cb7781d56968b1d")
    fleet = FleetConfig(node=server, n_nodes=3, seed=11)
    assert config_digest(fleet) == (
        "d630f0f751fb66c3d387c98ebcbfede516e1cc3865284b5cab1d6dd8c930edf8")
    assert run_key(server, 1_000_000) == (
        "a8ad91bc25fe8440d45bcef6c2483ef99e489c8a42f469d5e5ded73a6357c2bf")


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
