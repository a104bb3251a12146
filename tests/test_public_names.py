"""Every package's public names stay importable.

Package ``__init__``s re-export their submodules' names lazily (PEP 562
``__getattr__``/``__dir__``): a name is imported from its defining
module on first access. These tests check that each name in a package's
``__all__`` resolves to the defining module's object and is listed by
``dir()``, that importing every package loads none of its submodules,
and that the documented quickstart imports work.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defined_names(path: Path):
    """Names a module binds at top level by definition, not by import."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


def _defining_modules(package: str, name: str):
    root = SRC.joinpath(*package.split("."))
    return [_module_name(path) for path in sorted(root.rglob("*.py"))
            if name in _defined_names(path)]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_to_their_defining_module(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__, package
    listed = dir(pkg)
    for name in pkg.__all__:
        value = getattr(pkg, name)
        origins = _defining_modules(package, name)
        assert origins, f"{package}.{name} is defined nowhere"
        assert any(getattr(importlib.import_module(origin), name) is value
                   for origin in origins), (package, name, origins)
        assert name in listed, (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pkg, "no_such_name")


def test_importing_packages_loads_no_submodule():
    code = ("import importlib, json, sys\n"
            f"for p in {PACKAGES!r}: importlib.import_module(p)\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('repro'))))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert sorted(set(loaded) - {"repro._lazy"}) == PACKAGES


def test_top_level_quickstart_names():
    from repro import (ServerConfig, ServerSystem, profile_thresholds,
                       run_server)
    from repro.core.profiling import profile_thresholds as defined
    from repro.system import ServerConfig as config_cls
    assert ServerConfig is config_cls
    assert profile_thresholds is defined
    assert callable(run_server) and callable(ServerSystem)


def _doc_imports(path: Path):
    """The ``from repro... import ...`` lines of a document's python
    code blocks (parenthesised imports joined)."""
    text = path.read_text()
    lines = []
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for stmt in ast.parse(block).body:
            if (isinstance(stmt, ast.ImportFrom)
                    and stmt.module.split(".")[0] == "repro"):
                lines.append(ast.unparse(stmt))
    return lines


@pytest.mark.parametrize("doc", ["README.md", "docs/API.md"])
def test_documented_imports_work(doc):
    imports = _doc_imports(ROOT / doc)
    assert imports, f"{doc} shows no repro import"
    for line in imports:
        exec(line, {})
