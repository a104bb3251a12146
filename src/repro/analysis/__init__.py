"""Static analysis and runtime sanitizing for the determinism contract.

The repo's core correctness property — serial/parallel, sharded/serial,
and 1-node-fleet/standalone runs are bit-identical, and a result is a
pure function of ``(config, seed)`` — is only as strong as the
discipline of every future change. This package guards it
mechanically, in two layers:

* one static gate, ``python -m repro.analysis lint``
  (:func:`repro.analysis.flow.analyze_paths`), that parses the code
  once and flags the hazards which break reproducibility before they
  run. :mod:`repro.analysis.lint` holds the syntactic rules (wall-clock
  reads, mutable default arguments, time-typed names that dodge the
  ``_ns`` unit convention) and :mod:`repro.analysis.flow` the dataflow
  rules that follow values across functions (unseeded or global
  randomness, hash-ordered iteration feeding the event kernel or a
  float sum).
* :mod:`repro.analysis.sanitize` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1`` or ``Simulator(sanitize=True)``) that checks
  model invariants while a simulation runs: clock causality, fleet
  lockstep lookahead, and energy conservation. The off path is
  untouched — the sanitizer installs itself by shadowing the kernel's
  run loop in the instance dict, so unsanitized runs pay nothing and
  sanitized runs stay bit-identical.

See ``docs/ANALYSIS.md`` for the rule catalogue and invariants.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "common": ("Finding", "Report"),
    "flow": ("analyze_paths",),
    "sanitize": ("SanitizerError", "SimSanitizer"),
})
