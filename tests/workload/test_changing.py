"""Changing-load generator (Fig. 16)."""

import pytest

from repro.sim.rng import RandomStreams
from repro.units import MS, S
from repro.workload.changing import make_changing_load
from repro.workload.profiles import MEMCACHED_LEVELS


def rng():
    return RandomStreams(3).numpy_stream("x")


def test_segment_count_covers_duration():
    shape = make_changing_load(MEMCACHED_LEVELS, 3 * S,
                               switch_period_ns=500 * MS, rng=rng())
    assert len(shape.segments) == 6


def test_consecutive_segments_differ():
    shape = make_changing_load(MEMCACHED_LEVELS, 10 * S,
                               switch_period_ns=500 * MS, rng=rng())
    peaks = [seg.peak_rps for _, seg in shape.segments]
    assert all(a != b for a, b in zip(peaks, peaks[1:]))


def test_deterministic_under_seed():
    a = make_changing_load(MEMCACHED_LEVELS, 5 * S, rng=rng())
    b = make_changing_load(MEMCACHED_LEVELS, 5 * S, rng=rng())
    assert [s.peak_rps for _, s in a.segments] \
        == [s.peak_rps for _, s in b.segments]


def test_rates_come_from_level_shapes():
    shape = make_changing_load(MEMCACHED_LEVELS, 2 * S,
                               switch_period_ns=1 * S, rng=rng())
    level_peaks = {MEMCACHED_LEVELS.level(n).peak_rps_per_core
                   for n in ("low", "medium", "high")}
    assert {seg.peak_rps for _, seg in shape.segments} <= level_peaks


def test_validation():
    with pytest.raises(ValueError):
        make_changing_load(MEMCACHED_LEVELS, 0)
    with pytest.raises(ValueError):
        make_changing_load(MEMCACHED_LEVELS, 1 * S, level_names=["low"])


def test_switch_boundary_restarts_new_level_at_relative_zero():
    shape = make_changing_load(MEMCACHED_LEVELS, 2 * S,
                               switch_period_ns=500 * MS, rng=rng())
    for start, segment in shape.segments[1:]:
        assert shape.rate_at(start) == segment.rate_at(0)


def test_duration_not_multiple_of_period_truncates_last_segment():
    shape = make_changing_load(MEMCACHED_LEVELS, 1_200 * MS,
                               switch_period_ns=500 * MS, rng=rng())
    assert len(shape.segments) == 3  # 0, 500, 1000 ms
    assert shape.segments[-1][0] == 1_000 * MS


def test_period_at_least_duration_yields_single_segment():
    exact = make_changing_load(MEMCACHED_LEVELS, 500 * MS,
                               switch_period_ns=500 * MS, rng=rng())
    longer = make_changing_load(MEMCACHED_LEVELS, 500 * MS,
                                switch_period_ns=2 * S, rng=rng())
    assert len(exact.segments) == 1
    assert len(longer.segments) == 1


def test_zero_and_negative_periods_rejected():
    with pytest.raises(ValueError):
        make_changing_load(MEMCACHED_LEVELS, 1 * S, switch_period_ns=0)
    with pytest.raises(ValueError):
        make_changing_load(MEMCACHED_LEVELS, 1 * S, switch_period_ns=-1)
    with pytest.raises(ValueError):
        make_changing_load(MEMCACHED_LEVELS, -1 * S)


def test_two_level_pool_alternates_strictly():
    shape = make_changing_load(MEMCACHED_LEVELS, 3 * S,
                               switch_period_ns=500 * MS, rng=rng(),
                               level_names=("low", "high"))
    peaks = [seg.peak_rps for _, seg in shape.segments]
    assert len(set(peaks)) == 2
    assert all(a != b for a, b in zip(peaks, peaks[1:]))
