"""Load shapes and arrival generation."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RandomStreams
from repro.units import MS, S
from repro.workload import shapes
from repro.workload.changing import make_changing_load
from repro.workload.profiles import levels_for
from repro.workload.shapes import (BurstLoad, ConstantLoad, PiecewiseLoad,
                                   ScaledLoad, diurnal, generate_arrivals)


def rng():
    return RandomStreams(9).numpy_stream("arrivals")


def test_constant_load_rate():
    shape = ConstantLoad(1000.0)
    assert shape.rate_at(0) == 1000.0
    assert shape.mean_rps() == 1000.0


def test_constant_load_arrival_count():
    shape = ConstantLoad(50_000.0)
    arrivals = generate_arrivals(shape, 1 * S, rng())
    assert arrivals.size == pytest.approx(50_000, rel=0.05)


def test_arrivals_sorted_and_in_range():
    shape = BurstLoad(peak_rps=100_000, period_ns=100 * MS, duty=0.5)
    arrivals = generate_arrivals(shape, 300 * MS, rng())
    assert (np.diff(arrivals) >= 0).all()
    assert arrivals[0] >= 0 and arrivals[-1] < 300 * MS


def test_burst_mean_rate_formula():
    shape = BurstLoad(peak_rps=100_000, period_ns=100 * MS, duty=0.4,
                      rise_frac=0.2)
    assert shape.mean_rps() == pytest.approx(100_000 * 0.4 * 0.8)


def test_burst_arrival_count_matches_mean():
    shape = BurstLoad(peak_rps=100_000, period_ns=100 * MS, duty=0.4)
    arrivals = generate_arrivals(shape, 1 * S, rng())
    assert arrivals.size == pytest.approx(shape.mean_rps(), rel=0.05)


def test_burst_idle_gap_has_no_arrivals():
    shape = BurstLoad(peak_rps=100_000, period_ns=100 * MS, duty=0.3,
                      rise_frac=0.0)
    arrivals = generate_arrivals(shape, 1 * S, rng())
    phase = (arrivals % (100 * MS)) / (100 * MS)
    assert (phase <= 0.3 + 1e-9).all()


def test_burst_rate_envelope():
    shape = BurstLoad(peak_rps=1000, period_ns=100 * MS, duty=0.5,
                      rise_frac=0.2)
    # Mid-burst plateau at peak; mid-ramp at half peak; gap at zero.
    assert shape.rate_at(25 * MS) == pytest.approx(1000)
    assert shape.rate_at(5 * MS) == pytest.approx(500)
    assert shape.rate_at(80 * MS) == 0.0


def test_subnormal_rise_does_not_overflow():
    shape = BurstLoad(peak_rps=1000.0, rise_frac=5e-324)
    t = np.linspace(0, 100 * MS, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = shape.rate_at(t)
        assert shape.rate_at(25 * MS) == 1000.0
    assert (rate[t < 50 * MS][1:] == 1000.0).all()
    assert (rate[t >= 50 * MS] == 0.0).all()


def test_burst_vectorized_matches_scalar():
    shape = BurstLoad(peak_rps=1000, period_ns=100 * MS, duty=0.5)
    times = np.arange(0, 200 * MS, 7 * MS, dtype=float)
    vec = shape.rate_at(times)
    scalars = np.array([shape.rate_at(float(t)) for t in times])
    assert np.allclose(vec, scalars)


def test_scaled_load():
    base = ConstantLoad(1000.0)
    scaled = ScaledLoad(base, 4)
    assert scaled.mean_rps() == 4000.0
    assert scaled.peak_rps == 4000.0
    assert scaled.rate_at(123) == 4000.0


def test_piecewise_load_switches_segments():
    shape = PiecewiseLoad([(0, ConstantLoad(100.0)),
                           (1 * S, ConstantLoad(900.0))])
    assert shape.rate_at(0.5 * S) == 100.0
    assert shape.rate_at(1.5 * S) == 900.0
    assert shape.peak_rps == 900.0


def test_piecewise_segment_relative_time():
    burst = BurstLoad(peak_rps=1000, period_ns=100 * MS, duty=0.5,
                      rise_frac=0.0)
    shape = PiecewiseLoad([(0, ConstantLoad(0.0001)), (1 * S, burst)])
    # The burst restarts at the segment boundary: 1s + 25ms is mid-burst.
    assert shape.rate_at(1 * S + 25 * MS) == pytest.approx(1000)


def test_validation():
    with pytest.raises(ValueError):
        BurstLoad(peak_rps=0)
    with pytest.raises(ValueError):
        BurstLoad(peak_rps=10, duty=0)
    with pytest.raises(ValueError):
        BurstLoad(peak_rps=10, rise_frac=0.5)
    with pytest.raises(ValueError):
        PiecewiseLoad([])
    with pytest.raises(ValueError):
        PiecewiseLoad([(10, ConstantLoad(1)), (0, ConstantLoad(1))])
    with pytest.raises(ValueError):
        ScaledLoad(ConstantLoad(1), 0)
    with pytest.raises(ValueError):
        generate_arrivals(ConstantLoad(1), 0, rng())


def test_zero_rate_yields_no_arrivals():
    assert generate_arrivals(ConstantLoad(0.0), 1 * S, rng()).size == 0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1_000, max_value=200_000),
       st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.0, max_value=0.4))
def test_arrival_counts_track_mean_property(peak, duty, rise):
    shape = BurstLoad(peak_rps=peak, period_ns=50 * MS, duty=duty,
                      rise_frac=rise)
    arrivals = generate_arrivals(shape, 500 * MS, rng())
    expected = shape.mean_rps() * 0.5
    assert arrivals.size == pytest.approx(expected, rel=0.25, abs=30)


def test_piecewise_boundary_instant_belongs_to_new_segment():
    """At the exact switch instant the new segment owns the rate, and
    its shape is evaluated at relative time 0 (bursts restart)."""
    burst = BurstLoad(peak_rps=10_000, period_ns=10 * MS, duty=0.5,
                      rise_frac=0.2, phase_ns=3 * MS)
    shape = PiecewiseLoad([(0, ConstantLoad(500.0)), (7 * MS, burst)])
    assert shape.rate_at(7 * MS - 1) == 500.0
    assert shape.rate_at(7 * MS) == burst.rate_at(0)
    assert shape.rate_at(7 * MS + 1 * MS) == burst.rate_at(1 * MS)


def test_piecewise_zero_duration_segment_never_contributes():
    """Two segments starting at the same instant: the later one wins
    from that instant on; the zero-length one is dead."""
    shape = PiecewiseLoad([(0, ConstantLoad(100.0)),
                           (5 * MS, ConstantLoad(999.0)),
                           (5 * MS, ConstantLoad(200.0))])
    assert shape.rate_at(5 * MS - 1) == 100.0
    assert shape.rate_at(5 * MS) == 200.0
    assert shape.rate_at(20 * MS) == 200.0
    assert not np.any(shape.rate_at(np.arange(0, 20 * MS, MS)) == 999.0)


def test_piecewise_before_first_segment_clamps_to_it():
    shape = PiecewiseLoad([(2 * MS, ConstantLoad(300.0))])
    assert shape.rate_at(0) == 300.0


def test_burst_ramp_boundary_instants():
    """Rate at the exact corners of the trapezoid: zero at burst start,
    peak at end-of-rise, zero again from the burst's end."""
    peak, period = 10_000.0, 10 * MS
    shape = BurstLoad(peak_rps=peak, period_ns=period, duty=0.5,
                      rise_frac=0.25)
    burst_len = 0.5 * period
    assert shape.rate_at(0) == 0.0
    assert shape.rate_at(int(0.25 * burst_len)) == peak
    assert shape.rate_at(int(0.75 * burst_len)) == peak  # start of fall
    assert shape.rate_at(int(burst_len)) == 0.0
    assert shape.rate_at(period - 1) == 0.0
    assert shape.rate_at(period) == 0.0  # wraps to the next burst start


# -- blocked thinning == one-shot thinning ---------------------------------- #

def one_shot_arrivals(shape, duration_ns, rng):
    """Thinning over each whole chunk at once: the reference the blocked
    generator must reproduce bit for bit."""
    peak = shape.peak_rps
    if peak <= 0:
        return np.empty(0, dtype=np.int64)
    expected = peak * duration_ns / S
    arrivals = []
    t_cursor = 0.0
    chunk = max(1024, int(expected * 1.2))
    while t_cursor < duration_ns:
        gaps = rng.exponential(S / peak, size=chunk)
        times = t_cursor + np.cumsum(gaps)
        t_cursor = float(times[-1])
        times = times[times < duration_ns]
        if times.size == 0:
            continue
        accept = rng.random(times.size) < (np.asarray(shape.rate_at(times))
                                           / peak)
        arrivals.append(times[accept])
    if not arrivals:
        return np.empty(0, dtype=np.int64)
    result = np.concatenate(arrivals)
    result.sort()
    return result.astype(np.int64)


def changing_shape(duration_ns):
    return make_changing_load(
        levels_for("memcached"), duration_ns, switch_period_ns=100 * MS,
        rng=RandomStreams(1).numpy_stream("changing-load"))


EQUIVALENCE_SHAPES = {
    "constant": lambda d: ConstantLoad(90_000.0),
    "burst": lambda d: BurstLoad(peak_rps=120_000, period_ns=40 * MS,
                                 duty=0.6, rise_frac=0.1, phase_ns=7 * MS),
    "scaled": lambda d: ScaledLoad(BurstLoad(peak_rps=30_000,
                                             period_ns=25 * MS), 3),
    "changing": changing_shape,
    # Every other segment is idle: a zero-rate segment rejects all of
    # its candidates.
    "diurnal": lambda d: diurnal(d, period_ns=60 * MS, duty=0.3,
                                 peak_rps=150_000, trough_rps=0.0),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SHAPES))
@pytest.mark.parametrize("seed", [1, 7, 23])
@pytest.mark.parametrize("duration_ns", [3 * MS, 170 * MS, 700 * MS])
def test_blocked_thinning_matches_one_shot(name, seed, duration_ns):
    shape = EQUIVALENCE_SHAPES[name](duration_ns)
    rng = np.random.default_rng(seed)
    got = generate_arrivals(shape, duration_ns, rng)
    reference = np.random.default_rng(seed)
    want = one_shot_arrivals(shape, duration_ns, reference)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # Later draws from the same stream are unchanged too.
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_size_never_changes_arrivals(monkeypatch, block):
    """Blocks far smaller than a chunk (1000 does not divide the
    candidate count) leave every arrival where it was."""
    shape = diurnal(50 * MS, period_ns=10 * MS, duty=0.5,
                    peak_rps=80_000, trough_rps=0.0)
    want = one_shot_arrivals(shape, 50 * MS, np.random.default_rng(3))
    monkeypatch.setattr(shapes, "THINNING_BLOCK", block)
    got = generate_arrivals(shape, 50 * MS, np.random.default_rng(3))
    assert want.size > 0
    assert np.array_equal(got, want)


def test_thinning_memory_is_bounded_by_the_draws():
    """The 1.5 s Fig. 16 changing load on two cores (about 675k
    candidates): the draws are replayed block by block, so no draw
    array is chunk-sized and the traced peak (about 3 MB) stays well
    under the two full-size draw arrays' ~15 MB and the one-shot
    pass's ~35 MB."""
    shape = ScaledLoad(make_changing_load(
        levels_for("memcached"), 1500 * MS, switch_period_ns=500 * MS,
        rng=RandomStreams(1).numpy_stream("changing-load")), 2)
    tracemalloc.start()
    try:
        arrivals = generate_arrivals(shape, 1500 * MS,
                                     np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert arrivals.size > 100_000
    assert peak < 10 * 2**20
