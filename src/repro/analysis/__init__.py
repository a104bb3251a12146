"""Static analysis and runtime sanitizing for the determinism contract.

The repo's core correctness property — serial/parallel, batched/legacy,
and 1-node-fleet/standalone runs are bit-identical — is only as strong
as the discipline of every future change. This package guards it
mechanically, in two layers:

* :mod:`repro.analysis.lint` — an AST-based determinism linter
  (``python -m repro.analysis lint``) that flags the hazards which break
  reproducibility before they run: wall-clock reads, unseeded
  randomness, unordered iteration feeding the event kernel or float
  accumulation, mutable default arguments, and time-typed names that
  dodge the ``_ns`` unit convention.
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
    "common": ("Finding",),
    "lint": ("LintReport", "lint_paths"),
    "sanitize": ("SanitizerError", "SimSanitizer", "sanitize_enabled"),
})
