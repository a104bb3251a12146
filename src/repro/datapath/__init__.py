"""Pluggable RX datapath backends: how packets leave the NIC.

The paper's mechanism lives inside the kernel NAPI path, but the design
space it argues against is wider: DPDK-style busy polling burns whole
cores to shave the interrupt latency, and Metronome-style intermittent
retrieval (sleep&wake) reclaims that CPU at a tunable latency cost.
This package makes the NIC -> stack boundary a first-class seam so one
server model can run all of them:

* ``napi`` — the kernel path (hardirq -> softirq -> ksoftirqd), the
  default and bit-identical to the pre-refactor wiring;
* ``poll`` — dedicated poll cores spin on the RX rings with interrupts
  masked; the cores never idle, so the energy model charges the
  busy-poll tax;
* ``metronome`` — per-core sleep&wake retrieval with timer quantization
  and overshoot, adaptive sleep intervals;
* ``nmap-hybrid`` — Metronome whose sleep interval is driven by the
  NMAP decision engine's mode signal.

See docs/DATAPATH.md for the interface contract and the energy
accounting of each backend.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("MODE_BUSY_POLL", "MODE_INTERMITTENT", "RxBackend", "RxModeHub"),
    "metronome": ("MetronomeBackend", "NmapHybridBackend"),
    "napi": ("NapiRxBackend",),
    "pollmode": ("PollModeBackend",),
    "registry": ("RX_BACKENDS", "make_rx_backend"),
})
