"""Telemetry instruments: Counter/Gauge/Histogram and the registry."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs.registry import (Counter, Gauge, Histogram,
                                TelemetryRegistry, _MAX_EXP)


def _kind_of(reg, name):
    """The kind ``reg.items()`` reports for ``name`` (None if absent)."""
    return next((kind for n, _, kind, _ in reg.items() if n == name), None)


def test_counter_monotone():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(7.5)
    g.inc(-2.5)
    assert g.value == 5.0


def test_histogram_bucket_boundaries():
    # Bucket k (k >= 1) is (2**(k-1), 2**k]; bucket 0 is <= 1.
    assert Histogram.bucket_index(0) == 0
    assert Histogram.bucket_index(1) == 0
    assert Histogram.bucket_index(2) == 1
    assert Histogram.bucket_index(3) == 2
    assert Histogram.bucket_index(4) == 2
    assert Histogram.bucket_index(5) == 3
    # Exact powers of two land in their own bucket, not the next.
    for k in range(1, 40):
        assert Histogram.bucket_index(2 ** k) == k
        assert Histogram.bucket_index(2 ** k + 1) == k + 1
    # Overflow past the largest finite bucket.
    assert Histogram.bucket_index(2 ** (_MAX_EXP + 3)) == _MAX_EXP + 1


def test_histogram_observe_and_stats():
    h = Histogram()
    for v in (1, 10, 100, 1000):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 1111
    assert h.mean == pytest.approx(277.75)
    with pytest.raises(ValueError):
        h.observe(-1)


def test_histogram_cumulative_ends_at_inf():
    h = Histogram()
    h.observe(3)
    h.observe(300)
    buckets = h.cumulative_buckets()
    assert buckets[-1] == (math.inf, 2)
    counts = [c for _, c in buckets]
    assert counts == sorted(counts)  # cumulative


def test_histogram_quantile_is_bucket_upper_bound():
    h = Histogram()
    for _ in range(99):
        h.observe(100)       # bucket 7: (64, 128]
    h.observe(10_000)        # bucket 14
    assert h.quantile(0.5) == 128.0
    assert h.quantile(1.0) == 16384.0
    assert Histogram().quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


@given(st.lists(st.integers(min_value=0, max_value=2 ** 44), min_size=1,
                max_size=200))
def test_observe_many_matches_scalar_path(values):
    scalar, bulk = Histogram(), Histogram()
    for v in values:
        scalar.observe(v)
    bulk.observe_many(np.array(values, dtype=np.int64))
    assert bulk.buckets == scalar.buckets
    assert bulk.count == scalar.count
    assert bulk.sum == pytest.approx(scalar.sum)


def test_observe_many_rejects_negative():
    h = Histogram()
    with pytest.raises(ValueError):
        h.observe_many(np.array([1.0, -2.0]))
    h.observe_many(np.empty(0))  # empty is a no-op
    assert h.count == 0


def test_registry_memoizes_per_name_and_labels():
    reg = TelemetryRegistry()
    a = reg.counter("reqs", "Requests", core="0")
    b = reg.counter("reqs", core="0")
    c = reg.counter("reqs", core="1")
    assert a is b and a is not c
    assert len(reg) == 2
    assert _kind_of(reg, "reqs") == "counter"
    assert reg.help_of("reqs") == "Requests"


def test_registry_rejects_kind_conflicts():
    reg = TelemetryRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("x")
    with pytest.raises(ValueError):
        reg.counter("")


def test_registry_value_and_total():
    reg = TelemetryRegistry()
    reg.counter("pkts", core="0").inc(3)
    reg.counter("pkts", core="1").inc(4)
    reg.histogram("lat").observe(10)
    assert reg.value("pkts", core="0") == 3
    assert reg.total("pkts") == 7
    assert reg.value("lat") == 1  # histograms report their count
    with pytest.raises(KeyError):
        reg.value("pkts", core="9")
    with pytest.raises(KeyError):
        reg.total("lat")  # no scalar instrument under that name


def test_registry_as_dict_shape():
    reg = TelemetryRegistry()
    reg.gauge("g", core="0").set(2.5)
    reg.histogram("h").observe(5)
    d = reg.as_dict()
    assert d["g"]["core=0"] == 2.5
    assert d["h"][""]["count"] == 1


def test_instruments_pickle_roundtrip():
    reg = TelemetryRegistry()
    reg.counter("c", "help", core="0").inc(2)
    reg.gauge("g").set(1.5)
    reg.histogram("h", core="1").observe(100)
    clone = pickle.loads(pickle.dumps(reg))
    assert clone.value("c", core="0") == 2
    assert clone.value("g") == 1.5
    assert clone.help_of("c") == "help"
    h = dict((name, inst) for name, _l, _k, inst in clone.items())["h"]
    assert h.buckets == {7: 1}
    clone.counter("c", "help", core="0").inc(1)  # same instrument
    assert clone.value("c", core="0") == 3 and len(clone) == 3


def test_repeated_call_sites_keep_help_and_kind_checks():
    reg = TelemetryRegistry()
    reg.counter("x", core="0")
    reg.counter("x", "Help", core="0")  # help may arrive later
    reg.counter("x", core="0")
    assert reg.help_of("x") == "Help" and len(reg) == 1
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("x", core="0")


def test_select_and_sum_of_filter_by_labels():
    reg = TelemetryRegistry()
    reg.counter("pkts", core="0", mode="a").inc(1)
    reg.counter("pkts", core="1", mode="b").inc(2)
    reg.counter("pkts", core="1", mode="a").inc(4)
    assert [inst.value for inst in reg.select("pkts", mode="a")] == [1, 4]
    assert reg.sum_of("pkts") == 7
    assert reg.sum_of("pkts", core=1, mode="a") == 4
    assert reg.sum_of("absent") == 0


# -- observed instruments and freeze --------------------------------------- #

class _Owner:
    def __init__(self):
        self.hits = 0
        self.level = 0.5
        self.actions = 0


def _observe(reg, owner):
    reg.counter("hits", "Hits", read=lambda: owner.hits, core="0")
    reg.gauge("level", "Level", read=lambda: owner.level)
    reg.counter("actions", "Sparse", read=lambda: owner.actions or None)


def test_observed_value_follows_its_owner():
    reg, owner = TelemetryRegistry(), _Owner()
    _observe(reg, owner)
    owner.hits, owner.level = 3, 2.5
    assert reg.value("hits", core="0") == 3 and reg.value("level") == 2.5
    owner.hits += 4
    assert reg.total("hits") == 7 and reg.sum_of("hits", core=0) == 7
    assert [inst.value for inst in reg.select("hits")] == [7]


def test_freeze_yields_plain_instruments_that_pickle():
    reg, owner = TelemetryRegistry(), _Owner()
    _observe(reg, owner)
    reg.histogram("h").observe(100)
    owner.hits, owner.actions = 5, 2
    reg.freeze()
    owner.hits = 99  # frozen: the owner no longer shows through
    kinds = {name: type(inst) for name, _l, _k, inst in reg.items()}
    assert kinds == {"actions": Counter, "h": Histogram, "hits": Counter,
                     "level": Gauge}
    clone = pickle.loads(pickle.dumps(reg))
    assert clone.value("hits", core="0") == 5
    assert clone.value("level") == 0.5 and clone.value("actions") == 2
    assert not any(callable(getattr(inst, "read", None))
                   for _n, _l, _k, inst in clone.items())
    clone.counter("hits", core="0").inc()  # plain again
    assert clone.value("hits", core="0") == 6


def test_none_reader_drops_the_instrument_and_its_meta():
    reg, owner = TelemetryRegistry(), _Owner()
    _observe(reg, owner)
    reg.counter("mixed", "Mixed", read=lambda: None, kind="a")
    reg.counter("mixed", read=lambda: 1, kind="b")
    reg.freeze()
    assert _kind_of(reg, "actions") is None and reg.help_of("actions") == ""
    assert reg.select("actions") == [] and "actions" not in reg.as_dict()
    assert reg.help_of("mixed") == "Mixed"
    assert reg.as_dict()["mixed"] == {"kind=b": 1}


def test_observed_registration_checks_kind_and_duplicates():
    reg = TelemetryRegistry()
    reg.counter("x", read=lambda: 1)
    with pytest.raises(ValueError, match="already registered as counter"):
        reg.gauge("x", read=lambda: 1.0)
    with pytest.raises(ValueError, match="already registered"):
        reg.counter("x", read=lambda: 2)
    with pytest.raises(AttributeError):
        reg.counter("x").inc()  # the owner, not the registry, counts


# -- merge_from: folding per-node registries into a fleet registry --------- #

def test_merge_from_applies_extra_labels():
    node = TelemetryRegistry()
    node.counter("reqs_total", "Requests", core=0).inc(7)
    node.gauge("depth", "Queue depth").set(3)
    fleet = TelemetryRegistry()
    fleet.merge_from(node, node=2)
    assert fleet.value("reqs_total", core="0", node="2") == 7
    assert fleet.value("depth", node="2") == 3
    # The source labels survive; only the extra label was added.
    with pytest.raises(KeyError):
        fleet.value("reqs_total", node="2")


def test_merge_from_counters_add_and_gauges_overwrite():
    a = TelemetryRegistry()
    a.counter("hits", "").inc(2)
    a.gauge("level", "").set(10)
    b = TelemetryRegistry()
    b.counter("hits", "").inc(5)
    b.gauge("level", "").set(4)
    merged = TelemetryRegistry()
    merged.merge_from(a)  # no distinguishing label: accumulate
    merged.merge_from(b)
    assert merged.value("hits") == 7
    assert merged.value("level") == 4  # gauge takes the latest source


def test_merge_from_histograms_merge_buckets():
    a = TelemetryRegistry()
    a.histogram("lat", "").observe_many(np.array([1, 2, 4, 8]))
    b = TelemetryRegistry()
    b.histogram("lat", "").observe_many(np.array([4, 1000]))
    merged = TelemetryRegistry()
    merged.merge_from(a)
    merged.merge_from(b)
    h = merged.histogram("lat", "")
    assert h.count == 6
    assert h.sum == 1 + 2 + 4 + 8 + 4 + 1000
    combined = Histogram()
    combined.observe_many(np.array([1, 2, 4, 8, 4, 1000]))
    assert h.buckets == combined.buckets


def test_merge_from_preserves_kind_and_help():
    node = TelemetryRegistry()
    node.counter("pkts_total", "Packets seen").inc(1)
    fleet = TelemetryRegistry()
    fleet.merge_from(node, node=0)
    assert _kind_of(fleet, "pkts_total") == "counter"
    assert fleet.help_of("pkts_total") == "Packets seen"
