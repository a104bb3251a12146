"""Visualize NAPI mode transitions and the governor's P-state over time.

Renders an ASCII version of the paper's Fig. 2 (ondemand) or Fig. 9
(NMAP): per-millisecond packets in interrupt vs polling mode, the P-state
trace, and ksoftirqd wake-ups for core 0.

Usage::

    python examples/bursty_trace.py [ondemand|nmap|performance] [memcached|nginx]
"""

import sys

import numpy as np

from repro import ServerConfig, ServerSystem
from repro.experiments.traceutil import ksoftirqd_wake_times, pstate_series
from repro.metrics.ascii_plot import sparkline
from repro.metrics.timeseries import mode_series
from repro.units import MS


def main() -> None:
    governor = sys.argv[1] if len(sys.argv) > 1 else "ondemand"
    app = sys.argv[2] if len(sys.argv) > 2 else "memcached"
    duration = 300 * MS

    config = ServerConfig(app=app, load_level="high",
                          freq_governor=governor, n_cores=2, seed=7,
                          trace=True)
    system = ServerSystem(config)
    result = system.run(duration)

    modes = mode_series(result, core_id=0)
    pstates = pstate_series(result, core_id=0)
    wakes = ksoftirqd_wake_times(result, core_id=0)
    wake_bins = np.zeros(len(pstates))
    for t in wakes:
        wake_bins[min(len(wake_bins) - 1, int(t // MS))] = 1

    n = len(pstates)
    print(f"{app} high load under {governor} — core 0, {n} ms "
          f"(1 char = 1 ms)")
    print(f"interrupt pkts : {sparkline(modes['interrupt'])}")
    print(f"polling pkts   : {sparkline(modes['polling'])}")
    print(f"frequency      : {sparkline(-pstates, lo=-15, hi=0)}"
          f"   (high bar = P0)")
    print(f"ksoftirqd wake : {''.join('^' if w else ' ' for w in wake_bins)}")
    print()
    print(f"p99 = {result.p99_ns / 1e6:.3f} ms "
          f"(SLO {result.slo_ns / 1e6:.0f} ms), "
          f"energy = {result.energy_j:.2f} J, "
          f"poll/intr = {result.datapath_pkts['polling']}"
          f"/{result.datapath_pkts['interrupt']}")


if __name__ == "__main__":
    main()
