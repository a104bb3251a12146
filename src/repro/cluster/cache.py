"""Fleet names of the one run cache in :mod:`repro.experiments.runner`.

Fleets share the runner's memo, disk store and counters; new code calls
:func:`repro.experiments.runner.run_cached` and
:func:`repro.experiments.parallel.run_many` directly.
"""

from repro.experiments import runner

# Kept only because simbench/ imports or patches these names.
run_fleet_cached = runner.run_cached
clear_fleet_memo = runner._cache.clear
_key = runner._key
_disk_load = runner._disk_load
_disk_store = runner._disk_store
