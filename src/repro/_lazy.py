"""Load only what a run uses: lazy package exports and name-keyed specs.

A run imports the modules its configuration chooses and nothing else.
Two helpers make that the default:

* :func:`lazy_exports` gives a package PEP 562 ``__getattr__`` and
  ``__dir__`` hooks: each re-exported name is imported from its
  defining submodule on first access, then cached in the package.
* :func:`lookup` and :func:`load` back the name-keyed registries (apps,
  governors, RX backends, experiments): a registry maps each name to a
  ``"module:attr"`` spec, so checking a name imports nothing and
  building it imports only its own module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, which
    re-exports ``exports``: submodule (relative to the package) ->
    names it defines."""
    origin: Dict[str, str] = {name: f"{package}.{module}"
                              for module, names in exports.items()
                              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__


def lookup(registry: Mapping[str, str], name: str, what: str) -> str:
    """The spec ``registry`` keeps for ``name``; an unknown name raises
    ``ValueError("unknown <what> 'name'; known: [...]")``."""
    try:
        return registry[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; "
                         f"known: {sorted(registry)}") from None


def load(spec: str):
    """The object a ``"module:attr"`` spec names, importing its module."""
    module, _, attr = spec.partition(":")
    return getattr(importlib.import_module(module), attr)
