"""repro.p4: a programmable match-action RX pipeline (P4-style).

A :class:`~repro.p4.program.PipelineProgram` is a declarative, hashable
description of NIC-level packet processing — parser, N match-action
table stages, deparser — that sits in front of *any* RX datapath
backend (``repro.datapath``). Tables match exact or masked values of
deterministic packet metadata (session, flow hash, size class, kind,
priority) and apply **steer** (programmable RSS/flow pinning), **drop**,
**mirror**, and **meter/mark** (deterministic token buckets). Per-stage
cycle costs charge to the NIC (offload model: added pipeline latency)
or to the receiving core (host model: stolen cycles).

An absent or empty program is bit-identical to today's backends; canned
programs live in :mod:`repro.p4.library`. See docs/DATAPATH.md.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": ("PipelineEngine",),
    "library": ("drop_program", "flow_affine_program", "hash_rss_program",
                "identity_program", "meter_program"),
    "program": ("ACTIONS", "FIELDS", "PipelineProgram", "TableEntry",
                "TableStage", "chained", "size_class_of"),
})
