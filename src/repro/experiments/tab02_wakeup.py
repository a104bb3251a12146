"""Table 2: C-state wake-up time.

Methodology mirrors Sec. 5.2: a core is put into a sleep state; a wake
event (work submission) arrives; the time until execution resumes is the
wake-up latency. Measured for CC1->CC0 and CC6->CC0 on all four processor
profiles; the cache-refill penalty is excluded here (the paper measures
it separately) by setting ``cache_penalty_fraction = 0``.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.core import PRIORITY_TASK, Core, Work
from repro.cpu.profiles import PROCESSOR_PROFILES
from repro.experiments.base import QUICK, ExperimentResult, ExperimentScale
from repro.sim.rng import RandomStreams
from repro.sim.simulator import Simulator
from repro.units import MS, US


class _PinnedIdleGovernor:
    """Always selects one fixed C-state (measurement aid)."""

    def __init__(self, state_name: str):
        self.state_name = state_name

    def select(self, core, idle_elapsed_ns: int = 0):
        return core.cstates.by_name(self.state_name)

    def on_idle_end(self, core, idle_duration_ns: int) -> None:
        pass


def measure_wakeup(profile_name: str, state_name: str, n_reps: int,
                   seed: int = 0) -> np.ndarray:
    """Measured wake-up latencies (ns) from ``state_name`` to CC0."""
    profile = PROCESSOR_PROFILES[profile_name]
    sim = Simulator()
    rng = RandomStreams(seed)
    core = Core(sim, 0, profile.pstate_table(),
                cstate_table=profile.cstate_table(),
                rng=rng.stream("core"),
                cache_penalty_fraction=0.0)
    core.idle_reselect_period_ns = 0
    core.idle_governor = _PinnedIdleGovernor(state_name)
    samples = np.empty(n_reps)
    done = {"t": 0}

    def on_complete(work):
        done["t"] = sim.now

    # Warm-up work so the core passes through a busy->idle transition and
    # the idle governor gets consulted (cores are constructed idle in CC0).
    core.submit(Work(1_000, PRIORITY_TASK, label="warmup"))
    for rep in range(n_reps):
        sim.run_until(sim.now + 1 * MS)  # let the core settle into idle
        assert core.cstate.name == state_name
        t_wake = sim.now
        core.submit(Work(0, PRIORITY_TASK, on_complete=on_complete,
                         label="wakeup-probe"))
        sim.run_until(sim.now + 1 * MS)
        samples[rep] = done["t"] - t_wake
    return samples


def run(scale: ExperimentScale = QUICK) -> ExperimentResult:
    n_reps = 100  # the paper's count
    headers = ["processor", "transition", "mean (µs)", "stdev (µs)",
               "paper mean (µs)"]
    rows = []
    expectations = {}
    series = {}
    for name, profile in PROCESSOR_PROFILES.items():
        paper = {"CC6": profile.cc6_wake_ns[0], "CC1": profile.cc1_wake_ns[0]}
        for state in ("CC6", "CC1"):
            samples = measure_wakeup(name, state, n_reps, seed=scale.seed)
            rows.append([profile.name, f"{state}->CC0",
                         round(samples.mean() / US, 2),
                         round(samples.std() / US, 2),
                         round(paper[state] / US, 2)])
            series[f"{name}/{state}"] = samples
        cc6_mean = series[f"{name}/CC6"].mean()
        expectations[f"{name}: CC6 wake-up is tens of µs (20-40µs)"] = \
            20 * US < cc6_mean < 40 * US
        expectations[f"{name}: CC1 wake-up under 2µs"] = \
            series[f"{name}/CC1"].mean() < 2 * US
    return ExperimentResult(
        experiment_id="tab2",
        title="C-state wake-up time (sleep thread woken by wake thread)",
        headers=headers, rows=rows, series=series, expectations=expectations,
        notes="cache-refill penalty excluded (measured separately in "
              "Sec. 5.2); 100 repetitions as in the paper.")
