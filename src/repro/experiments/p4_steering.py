"""P4 steering: programmable flow pinning vs hash RSS under skew.

Not a paper artifact — NMAP (Sec. 3) takes the NIC's hash RSS spread as
given: every queue sees statistically similar traffic, so per-core mode
transitions suffice. That assumption dies under *skewed session
popularity*: a handful of hot sessions dominate the offered load, hash
RSS places sessions by ``mix(flow) % n_queues`` blind to their weight,
and whenever two elephants collide on one queue that core saturates
while its siblings idle — no DVFS policy can fix a placement problem.

With the match-action pipeline (``repro.p4``) in front of the RX path,
placement becomes programmable. This experiment runs one skewed
workload (hot sessions chosen *adversarially*: they all hash-collide on
one queue, at any core count) through four brackets under the NMAP
governor:

* ``baseline`` — no program; the NIC's hash RSS eats the skew.
* ``hash-rss`` — the same placement written out as an explicit steer
  table with a real per-packet lookup cost: the charged control arm.
* ``flow-affine`` — a weight-balanced steer table
  (:func:`repro.p4.library.flow_affine_program`) at the *same* lookup
  cost; only the placement differs.
* ``metered`` — flow-affine chained with an ingress token-bucket
  policer: excess load is shed at the NIC, before it can drag cores
  into polling mode (drop/meter interacting with NMAP's transitions).

Headline shape: flow-affine beats both hash placements on p99 at equal
cost, and the meter's NIC-level shedding shows up as fewer
polling-mode packets and lower energy than the unmetered bracket.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.nic.rss import _mix

if TYPE_CHECKING:
    from repro.experiments.base import ExperimentResult, ExperimentScale

APP = "memcached"
LEVEL = "high"

#: Per-packet lookup cost of the charged steer tables (NIC cycles; both
#: programmed placements pay it, so the p99 gap is placement alone).
TABLE_CYCLES = 25.0

#: Hot-session traffic share relative to a cold session.
HOT_WEIGHT = 16

#: Aggregate policer rate per core for the ``metered`` bracket, chosen
#: below the high-load per-core packet rate so the bucket visibly sheds.
METER_PPS_PER_CORE = 120_000.0


def skewed_weights(n_queues: int, n_flows: int,
                   hot: int = 4) -> Tuple[int, ...]:
    """Session weights whose hot sessions all hash-collide on one queue.

    The first ``hot`` session ids whose RSS hash (``mix(id) %
    n_queues``) lands on session 0's queue get :data:`HOT_WEIGHT`;
    everyone else weighs 1. Pure function of the shape — and adversarial
    by construction at *any* queue count, so the hash-RSS brackets
    concentrate the skew on one core at quick and full scale alike.
    """
    target = _mix(0) % n_queues
    weights = [1] * n_flows
    placed = 0
    for fid in range(n_flows):
        if _mix(fid) % n_queues == target:
            weights[fid] = HOT_WEIGHT
            placed += 1
            if placed == hot:
                break
    return tuple(weights)


def run(scale: Optional[ExperimentScale] = None) -> ExperimentResult:
    # Imported here: a caller of the module constants (the benchmark's
    # bypass-steered workload) never loads the grid and report stack.
    from repro.experiments import parallel
    from repro.experiments.base import QUICK, ExperimentResult
    from repro.experiments.grid import cell_config
    from repro.p4.library import (flow_affine_program, hash_rss_program,
                                  meter_program)
    from repro.p4.program import chained
    if scale is None:
        scale = QUICK
    n_queues = scale.n_cores
    n_flows = 8 * n_queues
    weights = skewed_weights(n_queues, n_flows)

    affine = flow_affine_program(n_queues, weights,
                                 cycles_per_packet=TABLE_CYCLES)
    brackets = (
        ("baseline", None),
        ("hash-rss", hash_rss_program(n_queues, n_flows,
                                      cycles_per_packet=TABLE_CYCLES)),
        ("flow-affine", affine),
        ("metered", chained(affine, meter_program(
            rate_pps=METER_PPS_PER_CORE * scale.n_cores, burst_pkts=64))),
    )
    jobs = [(cell_config(APP, LEVEL, "nmap", "menu", scale,
                         pipeline=program, n_flows=n_flows,
                         flow_weights=weights),
             scale.duration_ns) for _, program in brackets]
    results = dict(zip([label for label, _ in brackets],
                       parallel.run_many(jobs)))

    headers = ["bracket", "p99/slo", "E (J)", "dropped", "pkts polling",
               "table hits", "table misses"]
    rows = []
    norm = {}
    energy = {}
    hits = {}
    misses = {}
    polling = {label: result.datapath_pkts["polling"]
               for label, result in results.items()}
    for label, program in brackets:
        result = results[label]
        norm[label] = result.slo_result().normalized_p99
        energy[label] = result.energy_j
        h = m = 0
        if program is not None:
            for table in program.table_names():
                h += int(result.telemetry.value(
                    "p4_table_hits_total", subsystem="p4", table=table))
                m += int(result.telemetry.value(
                    "p4_table_misses_total", subsystem="p4", table=table))
        hits[label], misses[label] = h, m
        rows.append([label, round(norm[label], 3), round(energy[label], 3),
                     result.dropped, polling[label], h, m])

    parsed = int(results["flow-affine"].telemetry.value(
        "p4_packets_total", subsystem="p4", verdict="parsed"))
    expectations = {
        "flow-affine beats hash-RSS on p99 under skewed sessions":
            norm["flow-affine"] < norm["hash-rss"],
        "flow-affine beats the unprogrammed hash baseline too":
            norm["flow-affine"] < norm["baseline"],
        "the gap is placement, not cost: hash-rss tracks its free "
        "baseline": norm["hash-rss"] >= norm["baseline"] * 0.5,
        "per-table counters land in telemetry and account every packet":
            hits["flow-affine"] > 0
            and hits["flow-affine"] + misses["flow-affine"] == parsed,
        "the meter sheds at the NIC: pipeline drops are visible":
            results["metered"].dropped > 0,
        "shedding shortens polling-mode residency under NMAP":
            polling["metered"] < polling["flow-affine"],
        "shed load is saved energy":
            energy["metered"] < energy["flow-affine"],
    }
    hot_ids = [i for i, w in enumerate(weights) if w == HOT_WEIGHT]
    return ExperimentResult(
        experiment_id="p4_steering",
        title="Programmable RX steering vs hash RSS under skewed "
              "session popularity (memcached high, NMAP governor)",
        headers=headers, rows=rows,
        series={"normalized_p99": norm, "energy_j": energy,
                "table_hits": hits, "table_misses": misses},
        expectations=expectations,
        notes=f"{len(hot_ids)} hot sessions (ids {hot_ids}, weight "
              f"{HOT_WEIGHT}x) hash-collide on one of {n_queues} queues "
              f"by construction; flow-affine re-places them by weight at "
              f"identical table cost ({TABLE_CYCLES:g} NIC cycles/pkt).")
