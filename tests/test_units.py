"""Unit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_constants():
    assert units.US == 1_000
    assert units.MS == 1_000_000
    assert units.S == 1_000_000_000
    assert units.GHZ == 10 ** 9


def test_cycles_to_ns_basic():
    # 3200 cycles at 3.2 GHz = 1 µs.
    assert units.cycles_to_ns(3200, 3.2 * units.GHZ) == 1000


def test_cycles_to_ns_rounds_up_to_one():
    assert units.cycles_to_ns(1, 3.2 * units.GHZ) == 1


def test_cycles_to_ns_zero_work():
    assert units.cycles_to_ns(0, units.GHZ) == 0


def test_cycles_to_ns_rejects_bad_freq():
    with pytest.raises(ValueError):
        units.cycles_to_ns(100, 0)


def test_ns_to_cycles_roundtrip():
    cycles = units.ns_to_cycles(1000, 3.2 * units.GHZ)
    assert cycles == pytest.approx(3200)


@given(st.floats(min_value=1, max_value=1e9),
       st.floats(min_value=1e8, max_value=5e9))
def test_roundtrip_within_rounding(cycles, freq):
    t = units.cycles_to_ns(cycles, freq)
    back = units.ns_to_cycles(t, freq)
    # One ns of rounding at freq Hz is freq/1e9 cycles.
    assert abs(back - cycles) <= freq / 1e9 + 1e-6
