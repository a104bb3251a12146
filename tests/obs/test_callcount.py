"""Exact cost accounting: Python call counts of whole runs and samples.

``tests.callcount`` counts profiler call events per ``repro`` package,
which, unlike wall-clock time, is identical between identical runs. Two
kinds of check ride on it:

* **off == absent.** An empty fault plan or an empty P4 program builds
  nothing, so its run makes exactly the calls of a run without one; a
  run without a timeline never enters ``repro.obs.timeline``.
* **Tracing off costs nothing.** A run with channel tracing and span
  sampling off never enters ``repro.sim.trace`` or ``repro.obs.span``,
  also where fault windows and P4 drops would record; with tracing on
  it makes exactly one trace call per recorded sample.
* **Sampler budget.** One steady-state ``TimelineSampler.sample`` makes
  at most ``SAMPLE_CALL_BUDGET`` Python calls: the sampler reads the
  instruments registered when the system was built and does not
  rebuild them per sample.

Only ``run()`` is counted, after one warm-up run of the same config,
so lazy imports and first-call caches do not show.
"""

import gc
import sys

import pytest

from repro.faults import FaultPlan
from repro.faults.scenarios import make_plan
from repro.obs.timeline import TimelineConfig, TimelineSampler
from repro.p4 import PipelineProgram
from repro.p4.library import drop_program
from repro.system import ServerConfig, ServerSystem
from repro.units import MS
from tests.callcount import CallCount

#: Python calls allowed per steady-state sample (memcached and nginx,
#: two cores, NMAP): the window's latency percentile, the energy
#: projection and one read per column instrument.
SAMPLE_CALL_BUDGET = 100

BASE = ServerConfig(app="memcached", load_level="medium",
                    freq_governor="nmap", n_cores=2, seed=1)

#: Cells of the tracing checks: both apps, the two bypass datapaths,
#: plus the fault and P4 record sites (``fault.*`` windows,
#: ``fault.p4.drop`` per dropped packet).
TRACE_CELLS = [
    pytest.param({"app": "memcached"}, id="memcached"),
    pytest.param({"app": "nginx"}, id="nginx"),
    pytest.param({"datapath": "poll"}, id="poll"),
    pytest.param({"datapath": "metronome"}, id="metronome"),
    pytest.param({"fault_plan": make_plan("throttle", 20 * MS)},
                 id="fault-throttle"),
    pytest.param({"n_flows": 4, "pipeline": drop_program("session", [0])},
                 id="p4-drop"),
]


def _run_calls(config: ServerConfig, duration_ns: int) -> CallCount:
    """Call counts of ``run()`` alone, after one warm-up run.

    Collecting garbage first keeps finalizers of earlier objects (other
    tests', the warm-up run's) out of the count.
    """
    return _counted_run(config, duration_ns)[0]


def _counted_run(config: ServerConfig, duration_ns: int):
    """``(calls, result)`` of ``run()``, counted as in :func:`_run_calls`."""
    ServerSystem(config).run(duration_ns)
    system = ServerSystem(config)
    gc.collect()
    with CallCount() as calls:
        result = system.run(duration_ns)
    return calls, result


@pytest.mark.parametrize("field,empty", [
    ("fault_plan", FaultPlan()),
    ("pipeline", PipelineProgram()),
])
def test_empty_feature_costs_exactly_nothing(field, empty):
    absent = _run_calls(BASE, 20 * MS)
    off = _run_calls(BASE.with_overrides(**{field: empty}), 20 * MS)
    assert off.layers() == absent.layers()


def test_run_without_timeline_never_enters_the_timeline_module():
    calls = _run_calls(BASE, 20 * MS)
    assert calls.total > 0
    assert calls.modules["repro.obs.timeline"] == 0


@pytest.mark.parametrize("cell", TRACE_CELLS)
def test_tracing_off_never_enters_trace_or_span(cell):
    calls = _run_calls(BASE.with_overrides(trace=False, trace_sample_rate=0,
                                           **cell), 20 * MS)
    assert calls.total > 0
    assert calls.modules["repro.sim.trace"] == 0
    assert calls.modules["repro.obs.span"] == 0


@pytest.mark.parametrize("cell", TRACE_CELLS)
def test_tracing_on_makes_one_trace_call_per_sample(cell):
    calls, result = _counted_run(BASE.with_overrides(trace=True, **cell),
                                 20 * MS)
    trace = result.trace
    recorded = sum(len(trace.samples(channel))
                   for channel in trace.channels())
    assert recorded > 0
    assert calls.modules["repro.sim.trace"] == recorded


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="call counts are pinned on Python 3.11; other "
                           "interpreter versions count differently")
@pytest.mark.parametrize("app", ["memcached", "nginx"])
def test_sampler_calls_per_sample_within_budget(app, monkeypatch):
    counts = []
    sample = TimelineSampler.sample

    def counted(self, t_ns):
        with CallCount() as calls:
            row = sample(self, t_ns)
        counts.append(calls.total)
        return row

    monkeypatch.setattr(TimelineSampler, "sample", counted)
    config = BASE.with_overrides(
        app=app, timeline=TimelineConfig(interval_ns=1 * MS))
    ServerSystem(config).run(100 * MS)
    steady = counts[10:]
    assert len(steady) == 90
    assert max(steady) <= SAMPLE_CALL_BUDGET, sorted(steady)[-5:]
