"""The benchmark's four workloads, built on the experiments entry points.

Every workload runs through the same public calls the experiments CLI
uses — :func:`repro.experiments.runner.run_cached` for servers and
:func:`repro.cluster.cache.run_fleet_cached` for fleets — so cache
hashing, pickling and storage are part of what is measured. All
simulated load is open-loop in simulated time: the client sends on its
seeded arrival schedule whatever the server's state, and each latency is
timed from the scheduled send. The benchmark seed reaches the program
only as ``ServerConfig.seed`` / ``FleetConfig.seed``; everything else in
a workload (load shapes, weights, programs, fault plans) is fixed.

Each workload imports what its configurations need when they are built.
(Importing ``repro.experiments.runner`` loads the experiments package and
its registry, so a server workload's own entry point imports the fleet,
P4 and fault modules as well.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.units import MS

N_CORES = 2

#: Fig. 16's changing load: the level is re-drawn every 500 ms from the
#: stream the fig16 experiment draws it from at quick scale (seed 1), so
#: the workload replays that figure's first levels and switches. The
#: level sequence is part of the workload definition; the benchmark seed
#: varies only the arrivals and service draws.
SWITCH_PERIOD_NS = 500 * MS
FIG16_SHAPE_SEED = 1

#: Fleet shape of the ``fleet_scale`` experiment, at 8 nodes. The timed
#: runs drive the fleet in-process: shard workers next to the master on
#: a 2-CPU host time the host's scheduler more than the program. The
#: traced pass runs it again at ``PARITY_SHARDS`` to check bit-parity
#: and to time the master's waits on shard acks.
FLEET_NODES = 8
FLEET_SHARDS = 1
PARITY_SHARDS = 2
FLEET_KILLED_NODE = 3

#: Timed repetitions of a run, at least: with three, one slow
#: repetition is enough to move the median.
MIN_REPS = 4


def _memcached_changing(seed: int, duration_ns: int) -> list:
    from repro.sim.rng import RandomStreams
    from repro.system import ServerConfig
    from repro.workload.changing import make_changing_load
    from repro.workload.profiles import levels_for
    rng = RandomStreams(FIG16_SHAPE_SEED).numpy_stream("changing-load")
    shape = make_changing_load(levels_for("memcached"), duration_ns,
                               switch_period_ns=SWITCH_PERIOD_NS, rng=rng)
    return [ServerConfig(app="memcached", load_shape=shape,
                         freq_governor="nmap", idle_governor="menu",
                         n_cores=N_CORES, seed=seed)]


def _nginx_observed(seed: int, duration_ns: int) -> list:
    from repro.obs.timeline import TimelineConfig
    from repro.system import ServerConfig
    return [ServerConfig(app="nginx", load_level="high",
                         freq_governor="nmap", n_cores=N_CORES, seed=seed,
                         trace=True, trace_sample_rate=0.05,
                         timeline=TimelineConfig(interval_ns=1 * MS))]


def _bypass_steered(seed: int, duration_ns: int) -> list:
    from repro.experiments.p4_steering import TABLE_CYCLES, skewed_weights
    from repro.p4.library import flow_affine_program
    from repro.system import ServerConfig
    n_flows = 8 * N_CORES
    weights = skewed_weights(N_CORES, n_flows)
    program = flow_affine_program(N_CORES, weights,
                                  cycles_per_packet=TABLE_CYCLES)
    return [ServerConfig(app="memcached", load_level="high",
                         freq_governor=governor, n_cores=N_CORES, seed=seed,
                         datapath=datapath, pipeline=program,
                         n_flows=n_flows, flow_weights=weights)
            for datapath, governor in (("poll", "performance"),
                                       ("nmap-hybrid", "nmap"))]


def _fleet_failover(seed: int, duration_ns: int) -> list:
    from repro.cluster import FleetConfig
    from repro.cluster.health import HealthPolicy
    from repro.experiments import fleet_scale
    from repro.faults.scenarios import node_kill_plan
    from repro.system import ServerConfig
    from repro.workload.retry import RetryPolicy
    from repro.workload.shapes import diurnal
    node = ServerConfig(
        app="memcached", freq_governor="nmap", n_cores=N_CORES,
        load_shape=diurnal(duration_ns, fleet_scale.PERIOD_NS,
                           fleet_scale.DUTY, fleet_scale.PEAK_RPS,
                           fleet_scale.TROUGH_RPS),
        retry=RetryPolicy())
    return [FleetConfig(
        node=node, n_nodes=FLEET_NODES, policy="power-aware",
        n_sessions=FLEET_NODES, session_skew=fleet_scale.SESSION_SKEW,
        health=HealthPolicy(),
        node_fault_plans={FLEET_KILLED_NODE: node_kill_plan(duration_ns)},
        shards=FLEET_SHARDS, seed=seed)]


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a list of cells run back to back."""

    name: str
    why: str
    duration_ns: int
    build: Callable[[int, int], list]
    #: Wall seconds of one timed repetition on the 2-CPU x86_64 host the
    #: benchmark was sized on. A constant, never re-measured, so a run
    #: makes the same number of repetitions on every commit.
    rep_s: float
    fleet: bool = False

    def reps(self, seconds: float) -> int:
        """Timed repetitions of a run of about ``seconds``."""
        return max(MIN_REPS, round(seconds / self.rep_s))

    def configs(self, seed: int, duration_ns: Optional[int] = None,
                shards: Optional[int] = None) -> list:
        configs = self.build(seed, duration_ns or self.duration_ns)
        if shards is not None:
            configs = [config.with_overrides(shards=shards)
                       for config in configs]
        return configs

    @property
    def run_one(self) -> Callable:
        """The cached entry point of one cell."""
        if self.fleet:
            from repro.cluster.cache import run_fleet_cached
            return run_fleet_cached
        from repro.experiments.runner import run_cached
        return run_cached

    def run(self, seed: int, duration_ns: Optional[int] = None,
            shards: Optional[int] = None) -> List:
        """Simulate (or fetch from the cache) every cell, in order."""
        duration_ns = duration_ns or self.duration_ns
        run_one = self.run_one
        return [run_one(config, duration_ns)
                for config in self.configs(seed, duration_ns, shards)]


WORKLOADS = {w.name: w for w in (
    Workload("memcached-changing",
             "NMAP's headline mechanism: Fig. 16 changing load, re-drawn "
             "every 500 ms, drives interrupt/polling transitions and DVFS "
             "and C-state churn",
             1500 * MS, _memcached_changing, rep_s=5.0),
    Workload("nginx-observed",
             "multi-segment responses with trace, spans, 1 ms timeline and "
             "telemetry all on: ACK trains, NAPI polling, observability",
             500 * MS, _nginx_observed, rep_s=1.7),
    Workload("bypass-steered",
             "skewed sessions behind a P4 steer table on busy-poll and "
             "nmap-hybrid RX: the only datapath and p4 workload",
             100 * MS, _bypass_steered, rep_s=1.9),
    Workload("fleet-failover",
             "8-node power-aware fleet with a node crash, health checks "
             "and client retries (2-shard parity traced): cluster and faults",
             150 * MS, _fleet_failover, rep_s=1.6, fleet=True),
)}
