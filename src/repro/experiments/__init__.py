"""Experiment harnesses: one module per table/figure of the paper.

Each module exposes ``run(scale=QUICK) -> ExperimentResult``; the registry
maps experiment ids (``fig2`` .. ``fig16``, ``tab1``, ``tab2``) to those
functions. Results carry printable rows plus the raw series, and
``EXPERIMENTS.md`` is generated from them (``python -m repro.experiments``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("ExperimentResult", "ExperimentScale", "QUICK", "FULL"),
    "runner": ("run_cached", "clear_cache"),
    "registry": ("EXPERIMENTS", "run_experiment"),
})
