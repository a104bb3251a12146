"""Import budget: the ``repro`` modules each entry point loads.

Every entry point starts in a fresh interpreter and counts the ``repro``
modules in ``sys.modules`` once it is done. The counts are pinned in
``tests/import_budget.json``, a one-way ratchet like
``tests/analysis/debt_baseline.json``: a drop passes (re-pin it), a
rise fails until the table is re-pinned with its reason given in
CHANGES.md. Re-pin every entry with::

    PYTHONPATH=src python tests/test_import_budget.py

The rule the budget keeps: optional subsystems are imported where they
are built, package re-exports resolve on first access, and ``src/``
imports each name from its defining module (docs/PERFORMANCE.md,
"Start-up").
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("import_budget.json")

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro.")
                        or m == "numpy")))
"""

#: The import simbench's set-up probe makes before any cell is built.
SETUP_IMPORTS = "import repro.experiments.runner, repro.cluster.cache\n"

#: Builds and runs a 5 ms cell of each config of one benchmark workload
#: (``simbench/workloads.py``), without the disk cache.
_RUN_CELL = """
import sys
sys.path.insert(0, {simbench!r})
from workloads import WORKLOADS
from repro.units import MS
WORKLOADS[{name!r}].run(1, duration_ns=5 * MS)
"""

WORKLOADS = ("memcached-changing", "nginx-observed", "bypass-steered",
             "fleet-failover")


def _entry_points():
    entries = {"setup-probe-imports": SETUP_IMPORTS,
               "analysis-flow": "import repro.analysis.flow\n"}
    for name in WORKLOADS:
        entries[f"run-5ms:{name}"] = _RUN_CELL.format(
            simbench=str(ROOT / "simbench"), name=name)
    return entries


@functools.lru_cache(maxsize=None)
def loaded_modules(code: str):
    """The ``repro`` modules (and numpy) loaded once ``code`` has run in
    a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_RUN_CACHE="0")
    out = subprocess.run([sys.executable, "-c", code + _REPORT], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


def _count(modules) -> int:
    return sum(1 for m in modules if m != "numpy")


@pytest.fixture(scope="module")
def pinned():
    return json.loads(TABLE.read_text())


def test_table_pins_every_entry_point(pinned):
    assert set(pinned) == set(_entry_points())


@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_entry_point_stays_within_budget(entry, pinned):
    modules = loaded_modules(_entry_points()[entry])
    count = _count(modules)
    assert count <= pinned[entry], (
        f"{entry} loads {count} repro modules, {count - pinned[entry]} "
        f"over the pinned {pinned[entry]}: import the new modules where "
        f"they are used, or re-pin with the reason in CHANGES.md")


def test_setup_probe_imports_load_no_optional_subsystem():
    modules = loaded_modules(SETUP_IMPORTS)
    forbidden = [m for m in modules
                 if m.startswith(("repro.analysis", "repro.baselines",
                                  "repro.cluster.fleet", "repro.p4.engine",
                                  "repro.obs.perfetto",
                                  "repro.obs.prometheus"))]
    assert forbidden == []
    experiments = {m for m in modules if m.startswith("repro.experiments.")}
    assert experiments <= {"repro.experiments.runner",
                           "repro.experiments.confighash",
                           "repro.experiments.base"}


@pytest.mark.parametrize("name", ["memcached-changing", "bypass-steered",
                                  "fleet-failover"])
def test_spans_off_run_loads_no_span_module(name):
    """Only a run that samples spans imports ``repro.obs.span``."""
    modules = loaded_modules(_entry_points()[f"run-5ms:{name}"])
    assert "repro.obs.span" not in modules


def test_analysis_loads_neither_the_simulator_nor_numpy():
    modules = loaded_modules("import repro.analysis.flow\n")
    assert "repro.system" not in modules
    assert "numpy" not in modules


def write_table() -> None:
    """Re-pin every entry point at its current count."""
    counts = {entry: _count(loaded_modules(code))
              for entry, code in sorted(_entry_points().items())}
    TABLE.write_text(json.dumps(counts, indent=2) + "\n")
    print(json.dumps(counts, indent=2))


if __name__ == "__main__":
    write_table()
