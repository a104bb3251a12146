"""Exact Python call counts per ``repro`` package, via ``sys.setprofile``.

Wall-clock overhead on a shared host swings by tens of percent between
identical runs; the number of Python function calls a run makes does
not. Count a block of code with::

    with CallCount() as calls:
        system.run(50 * MS)
    calls.layers()                      # {"obs": 1234, "sim": 5678, ...}
    calls.modules["repro.obs.timeline"]

Each profiler ``call`` event is charged to the module of the entered
frame's code: ``repro.*`` modules by dotted name, everything else
(numpy, the standard library) to ``EXTERNAL``. A generator counts one
call per resumption. Frames of this file (the context manager's own
``__exit__``) are not counted. Counts are exact for one interpreter
version; a different minor version may count differently.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Dict, Optional

import repro

#: The bucket of frames outside the ``repro`` package.
EXTERNAL = "<external>"

_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _module_of(filename: str) -> Optional[str]:
    """The dotted ``repro`` module of ``filename``, ``EXTERNAL``, or None
    for this file."""
    path = os.path.abspath(filename)
    if path == os.path.abspath(__file__):
        return None
    if not path.startswith(_ROOT + os.sep):
        return EXTERNAL
    rel = os.path.splitext(os.path.relpath(path, _ROOT))[0]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts])


class CallCount:
    """Context manager counting Python calls per module while active."""

    def __init__(self) -> None:
        #: dotted module (or ``EXTERNAL``) -> calls.
        self.modules: Counter = Counter()

    def __enter__(self) -> "CallCount":
        modules = self.modules
        by_file: Dict[str, Optional[str]] = {}

        def profile(frame, event, arg):
            if event == "call":
                filename = frame.f_code.co_filename
                if filename not in by_file:
                    by_file[filename] = _module_of(filename)
                module = by_file[filename]
                if module is not None:
                    modules[module] += 1

        self._previous = sys.getprofile()
        sys.setprofile(profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)

    @property
    def total(self) -> int:
        return sum(self.modules.values())

    def layers(self) -> Dict[str, int]:
        """Calls per ``repro`` package (``repro.obs.timeline`` counts
        under ``obs``, ``repro.system`` under ``system``), plus
        ``EXTERNAL``."""
        out: Counter = Counter()
        for module, n in self.modules.items():
            parts = module.split(".")
            out[parts[1] if len(parts) > 1 else module] += n
        return dict(out)
