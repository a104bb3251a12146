"""Per-layer host-time ledger for one traced simulation pass.

Installed only for the traced pass and removed afterwards; nothing under
``src/`` changes. Three instruments feed one stack of open frames:

* Each layer's public entry points (:data:`ENTRY_POINTS`) are wrapped
  with a stack-based timer.
* ``EventQueue.push`` stores every scheduled callback as a timed frame
  charged to the layer of its owner — the module of ``fn.__self__``'s
  class, or of the function itself — so each fired event is timed.
* The kernel's own ``Simulator.run_until`` is wrapped as a ``sim``
  frame: its self time is the event loop's, net of the callbacks fired.

A frame's self time is its inclusive time minus the inclusive time of
the frames opened inside it. :meth:`Ledger.measure` opens the outermost
frame as the ``bench`` layer: its self time is the host time no layer
claimed (configuration and glue around the entry points). Self times
across layers therefore add up to the traced wall time by construction;
:meth:`Ledger.errors` checks what can fail — that every frame closed and
that ``bench`` keeps only a small share.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: The layers, named after the ``repro`` packages; ``system`` is the
#: ``repro.system`` facade (construction and result assembly).
LAYERS = ("sim", "nic", "p4", "netstack", "datapath", "cpu", "osched",
          "apps", "workload", "core", "governors", "obs", "system",
          "cluster", "faults", "experiments")

#: Largest share of the traced wall time the ``bench`` frame may keep
#: for itself before the ledger is considered incomplete.
MAX_UNATTRIBUTED_FRAC = 0.05

#: Packages charged to another layer: the trace recorder is an
#: observability path, the baseline managers are governors.
_PACKAGE_LAYER = {"baselines": "governors", "metrics": "obs",
                  "analysis": "sim", "units": "sim"}

#: Public entry points timed in the traced pass:
#: ``(module, class or None for module functions, names, layer)``.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.nic.nic", "MultiQueueNic",
     ("receive", "enqueue_rx", "transmit", "_fire_irq", "disable_irq",
      "enable_irq"), "nic"),
    ("repro.p4.engine", "PipelineEngine", ("rx", "_arrive"), "p4"),
    ("repro.netstack.stack", "NetworkStack",
     ("send_response", "_deliver", "_ack_train", "_ack_arrives"),
     "netstack"),
    ("repro.netstack.napi", "NapiContext",
     ("on_interrupt", "_irq_done", "_softirq_done", "make_deferred_work",
      "_deferred_done"), "netstack"),
    ("repro.netstack.ksoftirqd", "KsoftirqdThread", ("next_work",),
     "netstack"),
    ("repro.datapath.pollmode", "PollThread",
     ("next_work", "_batch_done", "on_doorbell"), "datapath"),
    ("repro.datapath.metronome", "MetronomeThread",
     ("next_work", "arm_timer"), "datapath"),
    ("repro.datapath.base", "RxBackend", ("register_into",), "datapath"),
    ("repro.datapath.napi", "NapiRxBackend", ("register_into",),
     "datapath"),
    ("repro.datapath.pollmode", "PollModeBackend", ("register_into",),
     "datapath"),
    ("repro.datapath.metronome", "MetronomeBackend", ("register_into",),
     "datapath"),
    ("repro.cpu.core", "Core",
     ("submit", "pause", "kick", "_complete", "_wake_done",
      "_idle_reselect", "_enter_deep", "set_pstate_index"), "cpu"),
    ("repro.cpu.dvfs", "DvfsController", ("request", "_apply"), "cpu"),
    ("repro.cpu.topology", "Processor",
     ("request_pstate", "set_pstate_cap", "finalize"), "cpu"),
    ("repro.osched.scheduler", "CoreScheduler",
     ("wake", "_work_done", "_slice_expired"), "osched"),
    ("repro.osched.thread", "SimThread", ("take_work",), "osched"),
    ("repro.apps.base", "AppWorkerThread", ("next_work", "_serve_done"),
     "apps"),
    ("repro.apps.memcached", "MemcachedApp", ("make_request",), "apps"),
    ("repro.apps.nginx", "NginxApp", ("make_request",), "apps"),
    ("repro.workload.client", "OpenLoopClient",
     ("start", "feed_arrivals", "_ring_doorbell", "on_response_at",
      "_on_timeout", "_resend", "_arrive", "finalize"), "workload"),
    ("repro.core.nmap", "NmapGovernor", ("_notify", "_report"), "core"),
    ("repro.core.decision", "DecisionEngine",
     ("on_notification", "on_report"), "core"),
    ("repro.core.monitor", "ModeTransitionMonitor",
     ("_on_irq", "_on_poll", "on_timer"), "core"),
    ("repro.governors.base", "FreqGovernor", ("request",), "governors"),
    ("repro.governors.base", "UtilGovernorBase", ("_on_sample",),
     "governors"),
    ("repro.governors.cpuidle", "MenuIdleGovernor",
     ("select", "on_idle_end"), "governors"),
    ("repro.sim.trace", "TraceRecorder", ("record",), "obs"),
    ("repro.obs.span", "SpanLog", ("want", "complete", "trim"), "obs"),
    ("repro.obs.timeline", "TimelineSampler", ("sample",), "obs"),
    ("repro.obs.timeline", "TimelineDriver", ("on_sample", "finish"),
     "obs"),
    ("repro.obs.registry", "TelemetryRegistry",
     ("counter", "gauge", "histogram", "merge_from"), "obs"),
    ("repro.system", "ServerSystem",
     ("__init__", "_measure_energy", "_finalize_result"), "system"),
    ("repro.cluster.fleet", None,
     ("drive_lockstep", "fleet_schedule", "build_fleet_result"), "cluster"),
    ("repro.cluster.fleet", "FleetSystem", ("__init__",), "cluster"),
    ("repro.cluster.fleet", "_LocalBackend",
     ("prefeed", "start_power", "run_span", "finish"), "cluster"),
    ("repro.cluster.health", "HealthMonitor",
     ("observe_window", "route", "on_dispatch", "fallback",
      "take_redispatch", "fast_forward"), "cluster"),
    ("repro.cluster.lb", "PowerAwarePolicy", ("choose",), "cluster"),
    ("repro.cluster.lb", "RoundRobinPolicy", ("choose", "choose_batch"),
     "cluster"),
    ("repro.faults.inject", "FaultInjector", ("_activate", "_deactivate"),
     "faults"),
    ("repro.experiments.runner", None,
     ("_key", "_disk_load", "_disk_store"), "experiments"),
    ("repro.cluster.cache", None, ("_key", "_disk_load", "_disk_store"),
     "experiments"),
)


def layer_for_module(module: str) -> str:
    """The ledger layer of a ``repro`` module (anything else: ``sim``)."""
    if module == "repro.sim.trace":
        return "obs"
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "sim"
    name = _PACKAGE_LAYER.get(parts[1], parts[1])
    return name if name in LAYERS else "sim"


class Ledger:
    """Self time, call counts and keyed inclusive time per layer."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns):
        self.clock = clock
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS + ("bench",), 0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS + ("bench",), 0)
        self.inclusive_ns: Dict[str, int] = {}
        #: Child-time accumulators of the open frames, innermost last.
        self._stack: List[List[int]] = []
        self._owner_layer: Dict[object, str] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- frames ---------------------------------------------------------- #

    def frame(self, layer: str, fn: Callable, key: Optional[str] = None
              ) -> Callable:
        """A bare closure running ``fn`` in a frame charged to ``layer``."""
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        inclusive_ns, clock = self.inclusive_ns, self.clock

        def wrapper(*args, **kwargs):
            child = [0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_ns[layer] += elapsed - child[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if key is not None:
                    inclusive_ns[key] = inclusive_ns.get(key, 0) + elapsed

        return wrapper

    def timed(self, layer: str, fn: Callable, key: Optional[str] = None
              ) -> Callable:
        """``fn`` wrapped in a frame charged to ``layer``, keeping its
        name and docstring (the form patched over entry points)."""
        wrapper = functools.wraps(fn)(self.frame(layer, fn, key))
        wrapper.simbench_layer = layer
        return wrapper

    def measure(self, fn: Callable, *args):
        """Run ``fn(*args)`` as the outermost (``bench``) frame.

        Its inclusive time lands in ``inclusive_ns["bench"]`` — the
        traced wall time — and ``self_ns["bench"]`` holds the part of it
        no layer frame claimed.
        """
        return self.timed("bench", fn, key="bench")(*args)

    def errors(self) -> List[str]:
        """What makes the ledger of the last :meth:`measure` unusable:
        frames left open, or too much time outside every layer."""
        errors = []
        if self._stack:
            errors.append(f"{len(self._stack)} ledger frames left open")
        wall = self.inclusive_ns.get("bench", 0)
        if self.self_ns["bench"] > MAX_UNATTRIBUTED_FRAC * wall:
            errors.append(
                f"{self.self_ns['bench'] / 1e9:.3f} s of {wall / 1e9:.3f} s "
                f"traced wall time is outside every layer")
        return errors

    def callback_layer(self, fn) -> Optional[str]:
        """Layer charged for a kernel callback; None if ``fn`` is already
        a timed wrapper (it opens its own frame)."""
        owner = getattr(fn, "__self__", None)
        if owner is None or isinstance(owner, type):
            target = getattr(fn, "func", fn)  # functools.partial
            key = getattr(target, "__code__", target)
        else:
            target = getattr(fn, "__func__", fn)
            key = (target, type(owner))
        layer = self._owner_layer.get(key)
        if layer is None:
            if hasattr(target, "simbench_layer"):
                layer = ""
            elif type(owner).__name__ == "PeriodicTimer":
                layer = "timer"
            elif owner is None or isinstance(owner, type):
                layer = layer_for_module(
                    getattr(target, "__module__", None) or "")
            else:
                layer = layer_for_module(type(owner).__module__)
            self._owner_layer[key] = layer
        if layer == "timer":
            # A periodic timer fires on behalf of the callable it wraps.
            return self.callback_layer(owner._fn)
        return layer or None

    # -- installation ---------------------------------------------------- #

    def install(self) -> None:
        """Wrap every entry point, the scheduled callbacks and the
        kernel's ``run_until`` (idempotent)."""
        if self._patched:
            return
        for module_name, class_name, names, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module,
                                                              class_name)
            for name in names:
                original = (getattr(module, name) if class_name is None
                            else owner.__dict__[name])
                self._patch(owner, name, original,
                            self.timed(layer, original))
        # The sharded backend imports the driver by name.
        from repro.cluster import fleet, sharded
        self._patch(sharded, "drive_lockstep", sharded.drive_lockstep,
                    fleet.drive_lockstep)
        from repro.sim.event import EventQueue
        from repro.sim.simulator import Simulator
        push = EventQueue.__dict__["push"]
        frame, callback_layer = self.frame, self.callback_layer

        def traced_push(queue, time, fn, args=()):
            layer = callback_layer(fn)
            if layer is not None:
                fn = frame(layer, fn)
            return push(queue, time, fn, args)

        self._patch(EventQueue, "push", push, traced_push)
        run_until = Simulator.__dict__["run_until"]
        self._patch(Simulator, "run_until", run_until,
                    self.timed("sim", run_until))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, original, replacement) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, replacement)
