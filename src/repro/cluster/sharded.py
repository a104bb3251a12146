"""Sharded multiprocess fleet execution — bit-identical to serial.

The serial fleet spends essentially all of its time inside node event
kernels; everything fleet-level (dispatch, health, budget) happens only
at window barriers. That structure shards cleanly: partition the nodes
across worker processes, keep *all* fleet-level decisions in the master,
and exchange state only at the barriers the lockstep contract already
defines. Within a stride every worker advances its shard independently —
that is the parallelism — and nothing a worker could tell the master
mid-stride is ever consumed, because the conservative lookahead proof is
exactly the statement that no such information exists.

:class:`~repro.cluster.fleet.FleetSystem` uses :class:`_ShardBackend`
when ``min(config.shards, config.n_nodes)`` > 1. Bit-parity holds by
construction:

* The master runs the *same* ``FleetSystem.run`` body — policy, health,
  budget, :func:`~repro.cluster.fleet.drive_lockstep`, result assembly —
  as the in-process fleet, against
  :class:`~repro.cluster.lb.RemoteNodeView`\\ s fed from worker barrier
  reports. Node state only changes while a window runs, so a value
  reported at barrier *t* equals the value the serial loop would read
  live at *t* — every dispatch, health, and budget decision is therefore
  identical, not approximately so.
* Each worker builds its nodes with ``config.node_config(i)`` — the same
  per-node seeds, fault plans, and overrides as serial construction —
  and executes spans through the same backend code path
  (``fleet._LocalBackend``), preserving per-node event order and float
  accumulation order exactly. Its handshake ships that backend's
  ``ladders``, ``slo_ns`` and sanitizer flags.
* Results cross the process boundary as pickled ``RunResult``\\ s, which
  preserves float bits; the fleet result is assembled by the same
  :func:`~repro.cluster.fleet.build_fleet_result` in the same node
  order, so even the fleet-level float energy sums are identical.

``tests/cluster/test_sharded.py`` enforces shard-count invariance on a
mixed-governor fleet with faults, retries, health checking, and power
budgeting all armed.

The wire protocol is five request/reply message kinds over one pipe per
worker (prefeed / start_power / span / finish / close); every request is
acknowledged, so worker-side failures — including sanitizer violations —
surface at the next barrier instead of hanging the master.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from typing import List, Sequence

import numpy as np

from repro.analysis.sanitize import SanitizerError
from repro.cluster.config import FleetConfig
from repro.cluster.fleet import _LocalBackend
# Unused here: simbench/ patches ``sharded.drive_lockstep`` by name. Drop
# this import when simbench/ next changes.
from repro.cluster.fleet import drive_lockstep  # noqa: F401
from repro.cluster.lb import RemoteNodeView
from repro.system import ServerSystem


def shard_bounds(n_nodes: int, shards: int) -> List[int]:
    """Contiguous balanced partition: ``shards + 1`` slice boundaries,
    shard ``s`` owning nodes ``[bounds[s], bounds[s+1])`` (sizes differ
    by at most one node)."""
    n_shards = max(1, min(shards, n_nodes))
    return [s * n_nodes // n_shards for s in range(n_shards + 1)]


# --------------------------------------------------------------------- #
# Worker side.
# --------------------------------------------------------------------- #

def _snapshot(nodes: List[ServerSystem], want_speed: bool) -> dict:
    payload = {
        "completed": [node.client.completed for node in nodes],
        "gave_up": [node.client.gave_up for node in nodes],
    }
    if want_speed:
        payload["speed"] = [node.processor.relative_speed
                            for node in nodes]
    return payload


def _worker_main(config: FleetConfig, node_ids: Sequence[int],
                 conn) -> None:
    """One shard: build the owned nodes, then serve barrier commands."""
    try:
        backend = _LocalBackend(config, node_ids)
        nodes = backend.nodes
        conn.send(("ok", {
            "ladders": backend.ladders,
            "busy": backend.busy(),
            "n_cores": [view.n_cores for view in backend.views],
            "sanitizing": backend.sanitizing,
            "periodic_energy": backend.periodic_energy,
            "slo_ns": backend.slo_ns,
        }))
        # Wall seconds spent executing spans, for the master's
        # shard-imbalance gauge (pure execution telemetry — never feeds
        # back into any simulation decision).
        span_wall_s = 0.0
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "prefeed":
                backend.prefeed(msg[1])
                conn.send(("ok", None))
            elif cmd == "start_power":
                backend.start_power()
                # Window-0 dispatch reads post-start state in serial
                # (start_power precedes the first barrier), so report it.
                conn.send(("ok", _snapshot(nodes, want_speed=True)))
            elif cmd == "span":
                (_, start, run_to, n_windows, batches, caps,
                 want_state, want_speed, want_busy, want_timeline) = msg
                t0 = time.perf_counter()
                rows = backend.run_span(start, run_to, n_windows, batches,
                                        caps, want_state, want_speed,
                                        want_busy, want_timeline)
                span_wall_s += time.perf_counter() - t0
                payload = (_snapshot(nodes, want_speed)
                           if want_state or want_speed else {})
                if want_busy:
                    payload["busy"] = backend.busy()
                if rows is not None:
                    payload["timeline"] = rows
                conn.send(("ok", payload))
            elif cmd == "finish":
                _, duration_ns, drain_ns, release_caps, wall_start = msg
                conn.send(("ok", {
                    "results": backend.finish(duration_ns, drain_ns,
                                              release_caps, wall_start),
                    "span_wall_s": span_wall_s,
                }))
            elif cmd == "close":
                return
            else:  # pragma: no cover - protocol bug guard
                raise RuntimeError(f"unknown fleet-shard command {cmd!r}")
    except BaseException as exc:
        try:
            conn.send(("error", isinstance(exc, SanitizerError),
                       traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover - master gone
            pass
    finally:
        conn.close()


# --------------------------------------------------------------------- #
# Master side.
# --------------------------------------------------------------------- #

class _Shard:
    """Master-side handle of one worker process."""

    def __init__(self, shard_id: int, config: FleetConfig,
                 node_ids: Sequence[int]):
        self.shard_id = shard_id
        self.node_ids = list(node_ids)
        self.lo = node_ids[0]
        self.hi = node_ids[-1] + 1
        self.conn, child = mp.Pipe()
        self.process = mp.Process(
            target=_worker_main, args=(config, self.node_ids, child),
            name=f"fleet-shard-{shard_id}", daemon=True)
        self.process.start()
        child.close()

    def send(self, *msg) -> None:
        self.conn.send(msg)

    def recv(self):
        try:
            tag, *rest = self.conn.recv()
        except EOFError:
            raise RuntimeError(
                f"fleet shard {self.shard_id} (nodes "
                f"{self.lo}..{self.hi - 1}) died without replying")
        if tag == "error":
            is_sanitizer, tb = rest
            if is_sanitizer:
                # Re-raise with the worker traceback embedded: the
                # violation is a model bug, not a transport failure.
                raise SanitizerError(
                    f"fleet shard {self.shard_id}: {tb.strip()}")
            raise RuntimeError(
                f"fleet shard {self.shard_id} failed:\n{tb}")
        return rest[0]

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(("close",))
        except (OSError, ValueError):
            pass
        self.conn.close()
        self.process.join(timeout=30)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout=5)


class _ShardBackend:
    """The ``drive_lockstep`` backend that ships spans over pipes.

    Starts one worker per shard, each owning a contiguous slice of the
    nodes, and assembles their handshakes into the attributes the
    in-process backend has: views, ladders, ``slo_ns`` and sanitizer
    flags.
    """

    def __init__(self, config: FleetConfig, n_shards: int):
        n_nodes = config.n_nodes
        bounds = shard_bounds(n_nodes, n_shards)
        self.shards: List[_Shard] = []
        try:
            for s in range(n_shards):
                self.shards.append(_Shard(s, config,
                                          range(bounds[s], bounds[s + 1])))
            handshakes = [shard.recv() for shard in self.shards]
        except BaseException:
            self.close()
            raise
        self.ladders = [ladder for hs in handshakes
                        for ladder in hs["ladders"]]
        self._busy = [b for hs in handshakes for b in hs["busy"]]
        n_cores = [n for hs in handshakes for n in hs["n_cores"]]
        self.sanitizing = handshakes[0]["sanitizing"]
        self.periodic_energy = handshakes[0]["periodic_energy"]
        self.slo_ns = handshakes[0]["slo_ns"]
        self._completed = np.zeros(n_nodes, dtype=np.int64)
        self._gave_up = np.zeros(n_nodes, dtype=np.int64)
        self._speed = np.ones(n_nodes, dtype=np.float64)
        self.views = [RemoteNodeView(i, n_cores[i], self._completed,
                                     self._gave_up, self._speed)
                      for i in range(n_nodes)]
        #: Wall seconds each worker spent executing spans (set by
        #: :meth:`finish`).
        self.span_wall_s: List[float] = []

    def _apply(self, shard: _Shard, payload: dict) -> None:
        lo, hi = shard.lo, shard.hi
        if "completed" in payload:
            self._completed[lo:hi] = payload["completed"]
            self._gave_up[lo:hi] = payload["gave_up"]
        if "speed" in payload:
            self._speed[lo:hi] = payload["speed"]
        if "busy" in payload:
            self._busy[lo:hi] = payload["busy"]

    def prefeed(self, batches: List[List[int]]) -> None:
        for shard in self.shards:
            shard.send("prefeed", batches[shard.lo:shard.hi])
        for shard in self.shards:
            shard.recv()

    def start_power(self) -> None:
        for shard in self.shards:
            shard.send("start_power")
        for shard in self.shards:
            self._apply(shard, shard.recv())

    def busy(self) -> List[int]:
        # Refreshed at every barrier the arbiter could fire after
        # (``want_busy``); the arbiter reads it only when firing, at
        # which point the cache is exactly the barrier state.
        return self._busy

    def run_span(self, start: int, run_to: int, n_windows: int,
                 batches, caps, want_state: bool, want_speed: bool,
                 want_busy: bool, want_timeline: bool = False):
        for shard in self.shards:
            shard.send("span", start, run_to, n_windows,
                       None if batches is None
                       else batches[shard.lo:shard.hi],
                       None if caps is None else caps[shard.lo:shard.hi],
                       want_state, want_speed, want_busy, want_timeline)
        # The ack doubles as the barrier: workers run their shards
        # concurrently between the send and recv loops.
        rows = [None] * len(self.views) if want_timeline else None
        for shard in self.shards:
            payload = shard.recv()
            self._apply(shard, payload)
            if want_timeline:
                # Rows were sampled worker-side by the same
                # _LocalBackend sampler code the serial fleet runs:
                # reassembling them in node order reproduces the serial
                # sample bit for bit.
                rows[shard.lo:shard.hi] = payload["timeline"]
        return rows

    def finish(self, duration_ns: int, drain_ns: int, release_caps: bool,
               wall_start: float):
        for shard in self.shards:
            shard.send("finish", duration_ns, drain_ns, release_caps,
                       wall_start)
        results = []
        for shard in self.shards:
            payload = shard.recv()
            results.extend(payload["results"])
            self.span_wall_s.append(payload["span_wall_s"])
        return results

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        for shard in self.shards:
            shard.stop()
