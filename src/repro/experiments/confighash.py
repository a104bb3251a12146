"""Stable, field-ordered hashing of run configurations.

The runner used to memoize by ``repr(config)``, which is fragile: repr
is not guaranteed stable across dict insertion orders, omits nothing, and
breaks silently if a field's repr changes. The cache key here is built
from a canonical traversal instead:

* dataclasses serialize as ``(classname, [(field, value), ...])`` over
  *every* field, in definition order, so a new config field joins the
  key the moment it is declared and no hand-kept field list can drop
  one;
* dicts serialize with keys sorted, so two equal configs whose
  ``app_params`` were built in different orders hash identically;
* plain objects (load shapes) serialize as their class name plus their
  sorted ``__dict__``;
* numpy arrays serialize as dtype + shape + raw bytes.

The digest is prefixed with :data:`MODEL_VERSION`, which doubles as the
persistent cache namespace: bump it whenever simulation semantics change
so stale on-disk results can never be served for new model behaviour.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any

import numpy as np

#: Version of the simulation model semantics. Part of every cache key and
#: the on-disk cache namespace; bump on any change that alters RunResults.
MODEL_VERSION = "2026.10-heap-compaction"


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to nested tuples of primitives, deterministically."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple((f.name, canonicalize(getattr(value, f.name)))
                       for f in dataclasses.fields(value))
        return (type(value).__name__, fields)
    if isinstance(value, dict):
        return ("dict", tuple((str(k), canonicalize(v))
                              for k, v in sorted(value.items(),
                                                 key=lambda kv: str(kv[0]))))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonicalize(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonicalize(v)) for v in value)))
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype), value.shape,
                value.tobytes())
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if hasattr(value, "__dict__"):
        # Load shapes and other plain model objects: class identity plus
        # attribute state (sorted; shapes never hold cycles).
        attrs = tuple((k, canonicalize(v))
                      for k, v in sorted(vars(value).items()))
        return (type(value).__name__, attrs)
    # Last resort: repr. Deterministic for everything the configs hold.
    return ("repr", repr(value))


def config_digest(config: Any) -> str:
    """Hex digest of one configuration object (model-version prefixed)."""
    canon = (MODEL_VERSION, canonicalize(config))
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def run_key(config: Any, duration_ns: int) -> str:
    """The cache key of one (config, duration) run."""
    canon = (MODEL_VERSION, int(duration_ns), canonicalize(config))
    return hashlib.sha256(repr(canon).encode()).hexdigest()
