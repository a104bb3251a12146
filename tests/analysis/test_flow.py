"""Interprocedural flow engine: clean corpus, gates, debt, mutations.

The bad-corpus table and the golden report of both rule sets live in
``test_lint.py``; here every ``clean_flow_*.py`` counterpart must come
back with no active finding, the flow files' part of the golden report
must not depend on the rest of the corpus, and the strict CLI gate must
count flow findings. The mutation tests are the acceptance proof:
seeded edits to a copy of ``src/repro`` (a set routed through a helper
into the kernel, a derived seed replaced by a constant) must each trip
their rule.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.common import debt_regressions, load_debt_baseline
from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint import RULES

CORPUS = Path(__file__).parent / "corpus"
REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: bad flow corpus file -> the one rule its active findings must carry.
FLOW_CASES = {
    "bad_flow_d002.py": "D002",
    "bad_flow_d003.py": "D003",
    "bad_flow_d004.py": "D004",
}


def _active(paths, rel_to=None):
    report = analyze_paths(paths, rel_to=rel_to)
    return [f for f in report.findings if not f.suppressed]


@pytest.mark.parametrize("rule", sorted(FLOW_CASES.values()))
def test_clean_counterpart_has_no_active_finding(rule):
    path = CORPUS / f"clean_flow_{rule.lower()}.py"
    assert _active([path]) == [], f"{path.name} should be flow-clean"


def test_constant_seed_passes_only_via_pragma():
    report = analyze_paths([CORPUS / "clean_flow_d002.py"])
    suppressed = [f for f in report.findings if f.suppressed]
    assert [f.rule for f in suppressed] == ["D002"]
    assert suppressed[0].justification is not None


def test_golden_json_report():
    """The flow files' findings in the one golden report are the same
    when those files are analysed on their own."""
    golden = json.loads((CORPUS / "golden_report.json").read_text())
    names = sorted({name for case in FLOW_CASES.items()
                    for name in (case[0],
                                 case[0].replace("bad_", "clean_", 1))})
    report = json.loads(analyze_paths([CORPUS / n for n in names],
                                      rel_to=CORPUS).to_json())
    expected = [f for f in golden["findings"] if f["path"] in names]
    assert report["findings"] == expected
    assert {f["rule"] for f in expected} == set(FLOW_RULES)
    assert report["rules"] == golden["rules"]


def test_source_tree_is_flow_clean():
    """The CI gate: src/repro has no active interprocedural findings."""
    report = analyze_paths([SRC], rel_to=SRC.parent, select=FLOW_RULES)
    assert report.active() == [], report.render_text()


def test_source_tree_debt_within_baseline():
    """The ratchet: suppression debt may only stay equal or drop."""
    baseline = load_debt_baseline(
        Path(__file__).parent / "debt_baseline.json")
    debt = analyze_paths([SRC], rel_to=REPO).debt
    assert debt_regressions(debt, baseline) == []


# --------------------------------------------------------------------- #
# Mutation tests: the engine detects the hazards it claims to
# --------------------------------------------------------------------- #

@pytest.fixture()
def src_copy(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(SRC, dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _mutate(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"mutation anchor missing in {path}"
    path.write_text(text.replace(old, new))


def test_mutation_set_through_helper_trips_d003(src_copy):
    (src_copy / "cluster/fleet.py").open("a").write('''

def _pending_ids(views):
    return set(views)


def _kick_all(sim, views):
    for vid in list(_pending_ids(views)):
        sim.schedule(0, vid)
''')
    active = _active([src_copy], rel_to=src_copy.parent)
    assert any(f.rule == "D003" and f.path.endswith("fleet.py")
               for f in active), active


def test_mutation_constant_seed_trips_d002_until_suppressed(src_copy):
    target = src_copy / "faults/inject.py"
    _mutate(target, 'derive_stream(self._seed, "faults", i)', "1234")
    active = _active([src_copy], rel_to=src_copy.parent)
    hits = [f for f in active if f.rule == "D002"
            and f.path.endswith("faults/inject.py")]
    assert hits, active
    # The explicit pragma is the only way past the gate.
    line = hits[0].line
    lines = target.read_text().splitlines()
    lines[line - 1] += "  # repro: allow[D002] -- mutation test"
    target.write_text("\n".join(lines) + "\n")
    active = _active([src_copy], rel_to=src_copy.parent)
    assert not [f for f in active if f.rule == "D002"
                and f.path.endswith("faults/inject.py")]


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"),
             "PATH": "/usr/bin:/bin"})


def test_cli_flow_strict_gate(tmp_path):
    """lint --strict fails each bad flow file on exactly its rule."""
    out = tmp_path / "report.json"
    for filename, rule in sorted(FLOW_CASES.items()):
        proc = _run_cli("lint", "--strict", "--json", str(out),
                        str(CORPUS / filename))
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(out.read_text())
        assert set(payload["summary"]["by_rule"]) == {rule}
        assert payload["summary"]["active"] >= 1
        assert payload["rules"] == {**RULES, **FLOW_RULES}

    proc = _run_cli("lint", "--strict",
                    str(CORPUS / "clean_flow_d003.py"))
    assert proc.returncode == 0, proc.stderr


def test_cli_lint_strict_folds_in_flow_findings():
    proc = _run_cli("lint", "--strict",
                    str(CORPUS / "bad_flow_d003.py"))
    assert proc.returncode == 1, proc.stderr
    assert "D003" in proc.stdout

    # Without --strict the interprocedural finding is informational.
    proc = _run_cli("lint", str(CORPUS / "bad_flow_d003.py"))
    assert proc.returncode == 0, proc.stderr
    assert "D003" in proc.stdout


def test_cli_debt_gate_ratchets(tmp_path):
    baseline = tmp_path / "baseline.json"
    bad = CORPUS / "clean_flow_d002.py"  # carries one D002 pragma
    proc = _run_cli("lint", "--write-debt", "--debt-baseline",
                    str(baseline), str(bad))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(baseline.read_text())["debt"]["D002"]

    # Same file, same debt: passes.
    proc = _run_cli("lint", "--debt", "--debt-baseline", str(baseline),
                    str(bad))
    assert proc.returncode == 0, proc.stderr

    # New pragma beyond the baseline: fails.
    extra = tmp_path / "extra.py"
    extra.write_text(
        "import random\n"
        "r = random.Random(9)"
        "  # repro: allow[D002] -- debt-gate test\n")
    proc = _run_cli("lint", "--debt", "--debt-baseline", str(baseline),
                    str(bad), str(extra))
    assert proc.returncode == 1
    assert "DEBT" in proc.stderr
