"""Workload generation: bursty open-loop clients.

The paper's clients send repetitive bursts of requests separated by idle
periods (Sec. 3.1, Fig. 2). Load levels (low/medium/high) differ in burst
*duty and peak*, not only mean rate; burst onsets look similar across
levels, which is why NMAP's thresholds transfer across load changes
(Sec. 4.2). Canonical per-application profiles live in
:mod:`repro.workload.profiles`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "request": ("Request",),
    "shapes": ("BurstLoad", "ConstantLoad", "LoadShape", "PiecewiseLoad",
               "ScaledLoad", "generate_arrivals"),
    "client": ("OpenLoopClient",),
    "profiles": ("LoadLevel", "WorkloadProfile", "MEMCACHED_LEVELS",
                 "NGINX_LEVELS", "levels_for"),
    "changing": ("make_changing_load",),
    "closed_loop": ("ClosedLoopClient",),
})
