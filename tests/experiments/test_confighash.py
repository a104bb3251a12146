"""Stable config hashing (the cache key of every run)."""

import dataclasses

import numpy as np
import pytest

import repro.experiments.confighash as confighash
from repro.cluster.fleet import FleetConfig
from repro.experiments.confighash import (HASHED_FIELDS, MODEL_VERSION,
                                          canonicalize, config_digest,
                                          run_key)
from repro.system import ServerConfig
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
# The HASHED_FIELDS registry (audited by the H001/H002 flow rules)
# --------------------------------------------------------------------- #

def test_registry_digests_are_pinned():
    """Digests only move when the config schema does.

    Re-pinned for MODEL_VERSION 2026.10-no-freelist (the config
    schema is unchanged; the bump retires cached results whose
    telemetry still carries the event-freelist gauges). Any further
    drift without a schema change or a MODEL_VERSION bump silently
    invalidates every cached run key.
    """
    server = ServerConfig(app="memcached", seed=7)
    assert config_digest(server) == (
        "e626ed9dbef997f408553c760adbe080126e6a88ec65559083d988d65e35756d")
    fleet = FleetConfig(node=server, n_nodes=3, seed=11)
    assert config_digest(fleet) == (
        "45ab5c0ae9248f3407e55cbc08df55738c567520646b39a80b026ef3848fbed8")
    assert run_key(server, 1_000_000) == (
        "8934e83593641d47ecad290ef2f44ae43a0fc2a8324b2bcffd242237de9ffeed")


@pytest.mark.parametrize("cls", [ServerConfig, FleetConfig])
def test_registry_matches_dataclass_definition(cls):
    """Every declared field is listed, in definition order.

    Order matters: the registry feeds canonicalize positionally, so a
    reordered entry would change digests even with the same field set.
    """
    declared = tuple(f.name for f in dataclasses.fields(cls))
    assert HASHED_FIELDS[cls.__name__] == declared


def test_stale_registry_entry_fails_loudly(monkeypatch):
    """A registry naming a nonexistent field must never hash silently."""
    patched = dict(HASHED_FIELDS)
    patched["ServerConfig"] = HASHED_FIELDS["ServerConfig"] + ("ghost",)
    monkeypatch.setattr(confighash, "HASHED_FIELDS", patched)
    with pytest.raises(AttributeError):
        config_digest(ServerConfig())


def test_registry_omission_excludes_field_from_digest(monkeypatch):
    """Dropping a field from the registry changes what the hash sees.

    This is exactly the hazard rule H001 exists to catch statically:
    two configs differing only in the dropped field collide.
    """
    fields = HASHED_FIELDS["ServerConfig"]
    patched = dict(HASHED_FIELDS)
    patched["ServerConfig"] = tuple(f for f in fields if f != "seed")
    monkeypatch.setattr(confighash, "HASHED_FIELDS", patched)
    a = config_digest(ServerConfig(seed=1))
    b = config_digest(ServerConfig(seed=2))
    assert a == b


def test_unregistered_dataclasses_hash_generically():
    @dataclasses.dataclass(frozen=True)
    class Local:
        x: int = 1

    assert Local.__name__ not in HASHED_FIELDS
    assert config_digest(Local(x=1)) == config_digest(Local(x=1))
    assert config_digest(Local(x=1)) != config_digest(Local(x=2))
