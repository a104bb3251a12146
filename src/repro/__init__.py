"""repro: a full-stack reproduction of NMAP (MICRO 2021).

NMAP — Network packet processing Mode-Aware Power management — drives
per-core DVFS from the interrupt/polling mode transitions of Linux NAPI.
This package reproduces the paper's system and evaluation on a
nanosecond-resolution discrete-event simulation of the server stack:
cores with P/C-states and re-transition latency, a multi-queue NIC with
RSS and interrupt moderation, the NAPI/softirq/ksoftirqd machinery, the
Linux governors, NMAP itself, and the NCAP/Parties baselines.

Quickstart::

    from repro import ServerConfig, ServerSystem
    from repro.units import MS

    config = ServerConfig(app="memcached", load_level="high",
                          freq_governor="nmap", idle_governor="menu")
    result = ServerSystem(config).run(300 * MS)
    print(result.latency_stats().describe())
    print(result.slo_result())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "system": ("DEFAULT_NMAP_THRESHOLDS", "RunResult", "ServerConfig",
               "ServerSystem", "run_server"),
    "core.nmap": ("NmapThresholds",),
    "core.profiling": ("profile_thresholds",),
})
__all__.append("__version__")
