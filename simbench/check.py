"""Result digests, invariants and pinned seeds.

A workload's digest hashes, for each cell in order, the sha256 of its
latencies, its package energy as an exact float hex string, its fired
event count and its completed count. The simulator is bit-deterministic,
so the digest must match across repetitions, between a fresh run and
its cache reload, between the traced and untraced passes, between shard
counts, and — for the seeds in ``pins.json`` — against the pinned value.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The seed the benchmark is tuned on, and one held out from tuning so a
#: later claim can be confirmed on inputs nobody looked at.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def events_fired(result) -> int:
    """Fired kernel events of a server result, or of all fleet nodes."""
    nodes = getattr(result, "node_results", None)
    if nodes is not None:
        return sum(node.perf.events_fired for node in nodes)
    return result.perf.events_fired


def cell_record(result) -> str:
    latencies = np.ascontiguousarray(result.latencies_ns, dtype=np.int64)
    return "|".join((hashlib.sha256(latencies.tobytes()).hexdigest(),
                     float(result.energy.package_j).hex(),
                     str(events_fired(result)), str(result.completed)))


def digest(results) -> str:
    """The workload digest of a list of cell results."""
    joined = "\n".join(cell_record(result) for result in results)
    return hashlib.sha256(joined.encode()).hexdigest()


def invariant_errors(results) -> List[str]:
    """Violated result invariants (empty when all hold)."""
    errors = []
    for i, result in enumerate(results):
        energy = result.energy
        if not energy.cores_j <= energy.package_j:
            errors.append(f"cell {i}: cores_j {energy.cores_j!r} > "
                          f"package_j {energy.package_j!r}")
        lost = result.sent - result.completed
        if lost < 0 or result.completed + lost != result.sent:
            errors.append(f"cell {i}: completed {result.completed} + lost "
                          f"{lost} != sent {result.sent}")
        if len(result.latencies_ns) != result.completed:
            errors.append(f"cell {i}: {len(result.latencies_ns)} latencies "
                          f"for {result.completed} completions")
        if len(result.latencies_ns) and int(np.min(result.latencies_ns)) <= 0:
            errors.append(f"cell {i}: non-positive latency")
    return errors


def load_pins() -> Dict[str, Dict[str, str]]:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


def pinned(workload: str, seed: int) -> Optional[str]:
    """The pinned digest of ``workload`` at ``seed``, if there is one."""
    return load_pins().get(workload, {}).get(str(seed))


def check(workload: str, seed: int, results,
          expected: Optional[str] = None) -> List[str]:
    """Every correctness failure of one workload run.

    ``expected`` is the digest this run must reproduce (an earlier
    repetition's); the pinned digest of ``seed`` is checked as well.
    """
    errors = invariant_errors(results)
    got = digest(results)
    if expected is not None and got != expected:
        errors.append(f"digest {got[:16]} differs from this seed's earlier "
                      f"run {expected[:16]}")
    pin = pinned(workload, seed)
    if pin is not None and got != pin:
        errors.append(f"digest {got[:16]} differs from the digest pinned "
                      f"for seed {seed}: {pin[:16]}")
    return errors
