"""Shared analysis plumbing: pragma debt accounting and the ratchet."""

from repro.analysis.common import (debt_regressions, debt_to_json,
                                   load_debt_baseline)
from repro.analysis.flow import analyze_paths


def count_debt(root):
    """The debt of every file under ``root``, as one analysis counts it."""
    return analyze_paths([root], rel_to=root).debt


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_count_debt_tallies_pragmas_per_rule_and_file(tmp_path):
    _write(tmp_path, "a.py",
           "x = 1  # repro: allow[D002] -- one\n"
           "y = 2  # repro: allow[D002] -- two\n"
           "z = 3  # repro: allow[D003] -- three\n")
    _write(tmp_path, "b.py", "w = 4  # repro: allow[D002] -- four\n")
    debt = count_debt(tmp_path)
    assert debt == {"D002": {"a.py": 2, "b.py": 1},
                    "D003": {"a.py": 1}}


def test_count_debt_ignores_pragmas_inside_string_literals(tmp_path):
    _write(tmp_path, "doc.py",
           'TEXT = "use # repro: allow[D002] -- like this"\n')
    assert count_debt(tmp_path) == {}


def test_debt_regressions_flags_only_increases(tmp_path):
    _write(tmp_path, "a.py",
           "x = 1  # repro: allow[D002] -- one\n"
           "y = 2  # repro: allow[D002] -- two\n")
    debt = count_debt(tmp_path)
    baseline = load_debt_baseline(
        _write(tmp_path, "base.json", debt_to_json(debt)))

    assert debt_regressions(debt, baseline) == []

    # Paying debt down is always allowed.
    shrunk = {"D002": {"a.py": 1}}
    assert debt_regressions(shrunk, baseline) == []

    # New pragma in an existing file, and a brand-new file: both flagged.
    grown = {"D002": {"a.py": 3, "b.py": 1}}
    flagged = debt_regressions(grown, baseline)
    assert len(flagged) == 2
    assert any("a.py" in msg and "3 pragma(s)" in msg for msg in flagged)
    assert any("b.py" in msg and "baseline allows 0" in msg
               for msg in flagged)
