"""Stable, field-ordered hashing of run configurations.

The runner used to memoize by ``repr(config)``, which is fragile: repr
is not guaranteed stable across dict insertion orders, omits nothing, and
breaks silently if a field's repr changes. The cache key here is built
from a canonical traversal instead:

* dataclasses serialize as ``(classname, [(field, value), ...])`` in
  *field definition order*;
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
from typing import Any, Dict, Tuple

import numpy as np

#: Version of the simulation model semantics. Part of every cache key and
#: the on-disk cache namespace; bump on any change that alters RunResults.
MODEL_VERSION = "2026.10-no-freelist"

#: The fields each known config class contributes to its cache key, in
#: definition order (so digests match the generic dataclass traversal).
#:
#: This registry is deliberately *explicit*: a field of a listed class
#: that is not named here is silently excluded from the hash — which is
#: exactly the hazard the ``H001`` flow rule checks statically (a
#: behavior-affecting field missing here means stale cached results are
#: served when it changes), while ``H002`` flags entries no simulation
#: code reads. Unlisted dataclasses still hash every field generically.
HASHED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "ServerConfig": (
        "app", "app_params", "load_level", "load_shape", "n_cores",
        "processor", "dvfs_domain", "freq_governor",
        "freq_governor_params", "idle_governor",
        "idle_governor_params", "nmap_thresholds",
        "ncap_threshold_rps", "stack", "power_model_params",
        "wire_latency_ns", "itr_gap_ns", "n_flows", "seed",
        "arrival_seed", "trace", "trace_sample_rate", "fault_plan",
        "retry", "timeline", "datapath", "datapath_params", "pipeline",
        "flow_weights"),
    "FleetConfig": (
        "node", "n_nodes", "policy", "policy_params",
        "lb_wire_latency_ns", "n_sessions", "session_skew",
        "fleet_budget_w", "budget_period_ns", "health",
        "node_fault_plans", "node_overrides", "shards",
        "max_stride_windows", "timeline", "seed"),
    "TimelineConfig": (
        "interval_ns", "monitors", "flight_windows", "flight_path",
        "max_flight_dumps"),
    "MonitorSpec": (
        "kind", "node", "abort", "budget", "horizon_windows",
        "threshold", "max_flips", "consecutive_windows"),
    "FaultPlan": ("windows",),
    "FaultWindow": (
        "kind", "start_ns", "end_ns", "prob", "corrupt_prob",
        "rate_hz", "cycles", "cap_index", "factor", "rx_capacity",
        "cores"),
    "StackConfig": ("napi", "timeslice_ns", "mss_bytes", "ack_spacing_ns"),
    "PipelineProgram": (
        "stages", "parser_cycles", "deparser_cycles", "cost_model",
        "nic_hz"),
    "TableStage": ("name", "entries", "cycles_per_packet", "miss_action"),
    "TableEntry": (
        "field", "value", "mask", "action", "queue", "rate_pps",
        "burst_pkts", "exceed_action"),
    "RetryPolicy": (
        "timeout_ns", "max_retries", "backoff_base_ns",
        "backoff_factor", "backoff_cap_ns"),
    "HealthPolicy": (
        "down_after_windows", "up_after_windows",
        "probe_every_windows", "min_outstanding",
        "redispatch_budget"),
}


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to nested tuples of primitives, deterministically."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        declared = HASHED_FIELDS.get(name)
        if declared is None:
            declared = tuple(f.name for f in dataclasses.fields(value))
        # A registry entry naming no real field raises AttributeError
        # here — a stale registry never hashes silently.
        fields = [(n, canonicalize(getattr(value, n))) for n in declared]
        return (name, tuple(fields))
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
