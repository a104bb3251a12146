"""Name-based RX backend construction (``ServerConfig.datapath``)."""

from __future__ import annotations

from typing import Dict

from repro._lazy import load, lookup

#: RX datapath backends constructible by name, as ``"module:class"``
#: specs: only the chosen backend's module is imported.
RX_BACKENDS: Dict[str, str] = {
    "napi": "repro.datapath.napi:NapiRxBackend",
    "poll": "repro.datapath.pollmode:PollModeBackend",
    "metronome": "repro.datapath.metronome:MetronomeBackend",
    "nmap-hybrid": "repro.datapath.metronome:NmapHybridBackend",
}


def make_rx_backend(name: str, stack, **params):
    """Instantiate (without building) the RX backend ``name``."""
    return load(lookup(RX_BACKENDS, name, "datapath"))(stack, **params)
