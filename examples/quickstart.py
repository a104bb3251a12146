"""Quickstart: run one server under NMAP and inspect the result.

Usage::

    python examples/quickstart.py [governor]

where governor is any of: performance, powersave, ondemand, conservative,
intel_powersave, nmap, nmap-simpl, ncap, ncap-menu, parties.
"""

import sys

from repro import ServerConfig, ServerSystem
from repro.units import MS


def main() -> None:
    governor = sys.argv[1] if len(sys.argv) > 1 else "nmap"
    config = ServerConfig(
        app="memcached",        # or "nginx"
        load_level="high",      # low / medium / high (Sec. 6.1 levels)
        freq_governor=governor,
        idle_governor="menu",   # menu / disable / c6only
        n_cores=2,              # quick scale; the testbed has 8
        seed=42,
    )
    system = ServerSystem(config)
    result = system.run(300 * MS)

    slo = result.slo_result()
    print(f"governor        : {governor}")
    print(f"requests        : {result.sent} sent, {result.completed} done")
    print(f"latency         : {result.latency_stats().describe()}")
    print(f"P99 vs SLO      : {slo.p99_ns / 1e6:.3f} ms vs "
          f"{slo.slo_ns / 1e6:.0f} ms "
          f"({'OK' if slo.satisfied else 'VIOLATED'})")
    print(f"energy          : {result.energy.describe()}")
    pkts = result.datapath_pkts
    print(f"NAPI modes      : {pkts['interrupt']} interrupt / "
          f"{pkts['polling']} polling packets")
    print(f"ksoftirqd wakes : "
          f"{result.telemetry.total('ksoftirqd_wakeups_total')}")


if __name__ == "__main__":
    main()
