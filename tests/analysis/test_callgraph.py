"""Project index and call graph over a synthetic package.

Builds a small package in a tmp dir exercising the shapes the flow
engine leans on: a mutual-recursion cycle, method lookup through a
base class, imports aliased at both module and symbol level, a
package-``__init__`` re-export, and a ``functools.partial`` binding
whose taint must still reach the kernel sink.
"""

import textwrap

import pytest

from repro.analysis.callgraph import ClassInfo, FunctionInfo, build_index
from repro.analysis.flow import FlowEngine, analyze_paths

FILES = {
    "synthpkg/__init__.py": """
        from synthpkg.core import tick as core_tick
    """,
    "synthpkg/core.py": """
        def tick(n):
            if n:
                return tock(n - 1)
            return 0


        def tock(n):
            return tick(n)
    """,
    "synthpkg/models.py": """
        class Base:
            def describe(self):
                return "base"


        class Child(Base):
            def label(self):
                return self.describe()
    """,
    "synthpkg/use.py": """
        import functools
        from synthpkg import core as c
        from synthpkg.models import Child as Kid


        def push_all(sim, batch):
            for item in list(batch):
                sim.schedule(0, item)


        def run(sim, items):
            handler = functools.partial(push_all, sim)
            handler(set(items))


        def spin(n):
            return c.tick(n)


        def make():
            return Kid()
    """,
}


@pytest.fixture(scope="module")
def pkg_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    for rel, body in FILES.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip())
    return root


@pytest.fixture(scope="module")
def index(pkg_root):
    return build_index([pkg_root], rel_to=pkg_root)


def test_module_names_follow_package_layout(index):
    assert {"synthpkg", "synthpkg.core", "synthpkg.models",
            "synthpkg.use"} <= set(index.modules)


def test_resolve_dotted_function_and_method(index):
    tick = index.resolve_dotted("synthpkg.core.tick")
    assert isinstance(tick, FunctionInfo)
    assert tick.qname == "synthpkg.core.tick"
    describe = index.resolve_dotted("synthpkg.models.Base.describe")
    assert isinstance(describe, FunctionInfo) and describe.is_method


def test_resolve_dotted_follows_reexport_hop(index):
    sym = index.resolve_dotted("synthpkg.core_tick")
    assert isinstance(sym, FunctionInfo)
    assert sym.qname == "synthpkg.core.tick"


def test_resolve_dotted_stops_on_package_importing_itself(tmp_path):
    # ``from selfpkg import sub`` in the package's own __init__: the
    # full dotted name is a module, not a re-exported symbol, and an
    # import hop back to the same name must not recurse forever.
    files = {
        "selfpkg/__init__.py": "from selfpkg import sub, ghost\n",
        "selfpkg/sub.py": "def run():\n    return 0\n",
    }
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    index = build_index([tmp_path], rel_to=tmp_path)
    assert index.resolve_dotted("selfpkg.sub") is None
    assert index.resolve_dotted("selfpkg.ghost") is None
    assert index.resolve_dotted("selfpkg.ghost.run") is None
    run = index.resolve_dotted("selfpkg.sub.run")
    assert isinstance(run, FunctionInfo) and run.qname == "selfpkg.sub.run"


def test_resolve_name_through_symbol_alias(index):
    use = index.modules["synthpkg.use"]
    kid = index.resolve_name(use, "Kid")
    assert isinstance(kid, ClassInfo)
    assert kid.qname == "synthpkg.models.Child"


def test_method_lookup_walks_base_classes(index):
    child = index.resolve_dotted("synthpkg.models.Child")
    method = index.lookup_method(child, "describe")
    assert method is not None
    assert method.qname == "synthpkg.models.Base.describe"


def test_flow_engine_terminates_on_cycle_and_records_edges(index):
    engine = FlowEngine(index)
    engine.run()
    assert "synthpkg.core.tock" in index.callees("synthpkg.core.tick")
    assert "synthpkg.core.tick" in index.callees("synthpkg.core.tock")


def test_partial_binding_carries_taint_to_sink(pkg_root):
    report = analyze_paths([pkg_root / "synthpkg" / "use.py"],
                           rel_to=pkg_root)
    active = [f for f in report.findings if not f.suppressed]
    assert any(f.rule == "D003" and "push_all" in f.message
               for f in active), active
