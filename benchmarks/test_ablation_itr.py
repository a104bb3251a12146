"""Ablation: interrupt moderation gap.

The 10 µs ITR of the Intel 82599 shapes how packets split between the two
NAPI processing modes. A *narrow* gap fires interrupts on near-empty
rings: the interrupt-mode batch is small and the rest of the burst is
absorbed by re-polls (polling mode). A *wide* gap lets packets accumulate
so the first (interrupt-mode) poll carries more — but never more than the
64-packet poll budget, which is the cap Fig. 2 observes.
"""

from repro.experiments.runner import run_cached
from repro.metrics.report import format_table
from repro.system import ServerConfig
from repro.units import MS, US

ITR_SWEEP = (5 * US, 10 * US, 40 * US)


def run_sweep():
    rows = []
    ratios = {}
    for gap in ITR_SWEEP:
        config = ServerConfig(app="memcached", load_level="high",
                              freq_governor="performance", n_cores=2,
                              seed=1, itr_gap_ns=gap)
        pkts = run_cached(config, 300 * MS).datapath_pkts
        ratio = pkts["polling"] / max(1, pkts["interrupt"])
        ratios[gap] = ratio
        rows.append([gap // US, pkts["interrupt"], pkts["polling"],
                     round(ratio, 3)])
    return rows, ratios


def test_ablation_itr_gap(benchmark):
    rows, ratios = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print(format_table(["ITR (µs)", "intr pkts", "poll pkts", "poll/intr"],
                       rows, title="ablation: interrupt moderation gap"))
    # Narrower moderation -> smaller interrupt-mode batches -> a larger
    # share of packets handled in polling mode.
    assert ratios[ITR_SWEEP[0]] > ratios[ITR_SWEEP[-1]]
    # Polling mode carries a substantial share at high load regardless of
    # moderation (the Fig. 2 cap observation).
    assert all(r > 0.5 for r in ratios.values())
