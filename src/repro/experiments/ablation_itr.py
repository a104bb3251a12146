"""Ablation: interrupt moderation gap vs the NAPI packet split.

The 10 µs ITR of the Intel 82599 shapes how packets split between the two
NAPI processing modes. A *narrow* gap fires interrupts on near-empty
rings: the interrupt-mode batch is small and the rest of the burst is
absorbed by re-polls (polling mode). A *wide* gap lets packets accumulate
so the first (interrupt-mode) poll carries more — but never more than the
64-packet poll budget, which is the cap Fig. 2 observes.
"""

from __future__ import annotations

from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.experiments.runner import run_cached
from repro.system import ServerConfig
from repro.units import US

ITR_SWEEP = (5 * US, 10 * US, 40 * US)


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    rows = []
    ratios = {}
    for gap in ITR_SWEEP:
        config = ServerConfig(app="memcached", load_level="high",
                              freq_governor="performance",
                              n_cores=scale.n_cores, seed=scale.seed,
                              itr_gap_ns=gap)
        pkts = run_cached(config, scale.duration_ns).datapath_pkts
        ratio = pkts["polling"] / max(1, pkts["interrupt"])
        ratios[gap] = ratio
        rows.append([gap // US, pkts["interrupt"], pkts["polling"],
                     round(ratio, 3)])
    expectations = {
        # Narrower moderation -> smaller interrupt-mode batches -> a
        # larger share of packets handled in polling mode.
        "narrower gap shifts packets to polling mode":
            ratios[ITR_SWEEP[0]] > ratios[ITR_SWEEP[-1]],
        # The Fig. 2 cap observation holds regardless of moderation.
        "polling mode carries a large share at every gap":
            all(r > 0.5 for r in ratios.values()),
    }
    return ExperimentResult(
        experiment_id="ablation_itr",
        title="Interrupt moderation gap (memcached, high, performance)",
        headers=["ITR (µs)", "intr pkts", "poll pkts", "poll/intr"],
        rows=rows,
        expectations=expectations)
