"""Every cell of the golden table reproduces its pinned row bit for bit.

A mismatch means a change moved simulation *behaviour*, not just
structure, which voids every cached result and figure at once; these
tests are brittle on purpose. ``tests/goldens.py`` holds the cells and
the capture, ``tests/goldens.json`` the rows.
"""

import sys

import pytest

from tests import goldens


def test_every_cell_has_a_row():
    assert sorted(goldens.CELLS) == sorted(goldens.ROWS)


@pytest.mark.parametrize("name", list(goldens.CELLS))
def test_golden_row(name):
    goldens.check(name, goldens.run(name))


@pytest.mark.parametrize("name", [name for name in goldens.CELLS
                                  if name.startswith("fleet_")])
def test_sharded_fleet_matches_its_row(name):
    result = goldens.run(name, shards=2)
    assert result.perf.shards == 2
    goldens.check(name, result)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="call counts are pinned for Python 3.11")
@pytest.mark.parametrize("name", [name for name, row in goldens.ROWS.items()
                                  if "calls_per_request" in row])
def test_calls_per_request_do_not_rise(name):
    """A one-way ratchet: a drop passes (re-pin it freely); a rise fails
    unless it is re-pinned with its reason in CHANGES.md."""
    pinned = goldens.ROWS[name]["calls_per_request"]
    counted = goldens.calls_per_request(name)
    rises = {layer: (pinned.get(layer, 0.0), calls)
             for layer, calls in counted.items()
             if calls > pinned.get(layer, 0.0)}
    assert not rises, (f"{name}: calls per request rose (pinned, now): "
                       f"{rises}; counted {counted}")
