"""Name-based application construction."""

from __future__ import annotations

from typing import Dict

from repro._lazy import load, lookup

#: Applications constructible by name, as ``"module:class"`` specs: only
#: the chosen application's module is imported.
APPLICATIONS: Dict[str, str] = {
    "memcached": "repro.apps.memcached:MemcachedApp",
    "nginx": "repro.apps.nginx:NginxApp",
}


def make_app(name: str, rng, **params):
    """Instantiate the application ``name``."""
    return load(lookup(APPLICATIONS, name, "application"))(rng, **params)
