"""Fleet-level latency metrics: per-node tails and imbalance.

A fleet's p99 over all requests can look healthy while one node's local
p99 has blown through the SLO — the tail-at-scale failure mode that
session-affine balancing produces. These helpers keep the two views
(fleet-wide and per-node) side by side.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def node_p99s_ns(node_results: Sequence) -> List[float]:
    """Per-node p99 latency (ns), node order; 0.0 for an idle node."""
    out: List[float] = []
    for result in node_results:
        latencies = result.latencies_ns
        out.append(float(np.percentile(latencies, 99))
                   if len(latencies) else 0.0)
    return out


def imbalance_ratio(node_p99s: Sequence[float], fleet_p99_ns: float) -> float:
    """Worst node p99 / fleet p99; 1.0 means perfectly balanced."""
    if fleet_p99_ns <= 0 or not node_p99s:
        return 1.0
    return max(node_p99s) / fleet_p99_ns
