"""Interprocedural flow engine: corpus, H-rules, gates, and mutations.

Mirrors the linter's corpus discipline: every ``bad_flow_*.py`` file
must be flagged by exactly its rule (the intraprocedural linter misses
all of them — that is the point), every clean counterpart comes back
with no active finding, and a golden JSON pins the report format. The
mutation tests are the acceptance proof: seeded edits to a copy of
``src/repro`` (a field deleted from the hash registry, a set routed
through a helper into the kernel, a derived seed replaced by a
constant) must each trip their rule.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.common import count_debt, debt_regressions, \
    load_debt_baseline
from repro.analysis.flow import FLOW_RULES, analyze_paths
from repro.analysis.lint import lint_file

CORPUS = Path(__file__).parent / "corpus_flow"
REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: bad corpus file -> the one rule its active findings must carry.
BAD_CASES = {
    "bad_flow_d002.py": "D002",
    "bad_flow_d003.py": "D003",
    "bad_flow_d004.py": "D004",
}


def _active(paths, rel_to=None):
    report = analyze_paths(paths, rel_to=rel_to)
    return [f for f in report.findings if not f.suppressed]


@pytest.mark.parametrize("filename,rule", sorted(BAD_CASES.items()))
def test_bad_corpus_flagged_by_exactly_its_rule(filename, rule):
    active = _active([CORPUS / filename])
    assert active and {f.rule for f in active} == {rule}, (
        f"{filename}: expected only {rule}, got "
        f"{[(f.rule, f.line) for f in active]}")


@pytest.mark.parametrize("rule", sorted(BAD_CASES.values()))
def test_clean_counterpart_has_no_active_finding(rule):
    path = CORPUS / f"clean_flow_{rule.lower()}.py"
    assert _active([path]) == [], f"{path.name} should be flow-clean"


@pytest.mark.parametrize("filename", sorted(BAD_CASES))
def test_intraprocedural_linter_misses_the_flow_cases(filename):
    """The corpus earns its name: lint alone cannot see these."""
    rule = BAD_CASES[filename]
    lint_active = [f for f in lint_file(CORPUS / filename)
                   if not f.suppressed and f.rule == rule]
    assert lint_active == [], (
        f"{filename} is visible to the intraprocedural linter; it "
        f"does not demonstrate an interprocedural gap")


def test_constant_seed_passes_only_via_pragma():
    report = analyze_paths([CORPUS / "clean_flow_d002.py"])
    suppressed = [f for f in report.findings if f.suppressed]
    assert [f.rule for f in suppressed] == ["D002"]
    assert suppressed[0].justification is not None


def test_hashpkg_bad_flags_h001_and_h002():
    active = _active([CORPUS / "hashpkg_bad"], rel_to=CORPUS)
    by_rule = {f.rule: f for f in active}
    assert set(by_rule) == {"H001", "H002"}, active
    assert "BadPkgConfig.burst" in by_rule["H001"].message
    assert by_rule["H001"].path.endswith("config.py")
    assert "BadPkgConfig.debug_label" in by_rule["H002"].message
    assert by_rule["H002"].path.endswith("hashing.py")


def test_hashpkg_clean_is_clean():
    assert _active([CORPUS / "hashpkg_clean"], rel_to=CORPUS) == []


def test_stale_registry_entry_flags_h002(tmp_path):
    pkg = tmp_path / "hashpkg_bad"
    shutil.copytree(CORPUS / "hashpkg_bad", pkg)
    hashing = pkg / "hashing.py"
    hashing.write_text(hashing.read_text().replace(
        '"rate_hz", "debug_label"', '"rate_hz", "debug_label", "gone"'))
    active = _active([pkg], rel_to=tmp_path)
    stale = [f for f in active if f.rule == "H002"
             and "names no field" in f.message]
    assert len(stale) == 1 and "gone" in stale[0].message


def test_golden_json_report():
    report = analyze_paths([CORPUS], rel_to=CORPUS)
    golden = json.loads(
        (CORPUS / "golden_flow_report.json").read_text())
    assert json.loads(report.to_json()) == golden
    assert golden["version"] == 1
    assert golden["rules"] == FLOW_RULES
    assert golden["summary"]["active"] == len(report.active())


# --------------------------------------------------------------------- #
# The gates, as unit tests
# --------------------------------------------------------------------- #

def test_source_tree_is_flow_clean():
    """The CI gate: src/repro has no active interprocedural findings."""
    report = analyze_paths([SRC], rel_to=SRC.parent)
    assert report.active() == [], report.render_text()


def test_source_tree_debt_within_baseline():
    """The ratchet: suppression debt may only stay equal or drop."""
    baseline = load_debt_baseline(
        Path(__file__).parent / "debt_baseline.json")
    debt = count_debt([SRC], rel_to=REPO)
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


def test_mutation_dropping_hashed_field_trips_h001(src_copy):
    _mutate(src_copy / "experiments/confighash.py",
            '"wire_latency_ns", ', '')
    active = _active([src_copy], rel_to=src_copy.parent)
    assert any(f.rule == "H001"
               and "ServerConfig.wire_latency_ns" in f.message
               for f in active), active


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

def _run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(REPO / "src"),
             "PATH": "/usr/bin:/bin"})


def test_cli_flow_strict_gate(tmp_path):
    out = tmp_path / "report.json"
    proc = _run_cli("flow", "--strict", "--json", str(out),
                    str(CORPUS / "bad_flow_d003.py"))
    assert proc.returncode == 1, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["summary"]["active"] == 1
    assert payload["rules"] == FLOW_RULES

    proc = _run_cli("flow", "--strict",
                    str(CORPUS / "clean_flow_d003.py"))
    assert proc.returncode == 0, proc.stderr


def test_cli_debt_gate_ratchets(tmp_path):
    baseline = tmp_path / "baseline.json"
    bad = CORPUS / "clean_flow_d002.py"  # carries one D002 pragma
    proc = _run_cli("flow", "--write-debt", "--debt-baseline",
                    str(baseline), str(bad))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(baseline.read_text())["debt"]["D002"]

    # Same file, same debt: passes.
    proc = _run_cli("flow", "--debt", "--debt-baseline", str(baseline),
                    str(bad))
    assert proc.returncode == 0, proc.stderr

    # New pragma beyond the baseline: fails.
    extra = tmp_path / "extra.py"
    extra.write_text(
        "import random\n"
        "r = random.Random(9)"
        "  # repro: allow[D002] -- debt-gate test\n")
    proc = _run_cli("flow", "--debt", "--debt-baseline", str(baseline),
                    str(bad), str(extra))
    assert proc.returncode == 1
    assert "DEBT" in proc.stderr


def test_cli_lint_strict_folds_in_flow_findings():
    proc = _run_cli("lint", "--strict",
                    str(CORPUS / "bad_flow_d003.py"))
    assert proc.returncode == 1, proc.stderr
    assert "D003" in proc.stdout

    # Without --strict, lint alone cannot see the interprocedural bug.
    proc = _run_cli("lint", str(CORPUS / "bad_flow_d003.py"))
    assert proc.returncode == 0, proc.stderr
    assert "D003" not in proc.stdout
