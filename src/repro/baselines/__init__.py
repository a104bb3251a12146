"""Baseline SLO-aware power managers the paper compares against.

* :class:`NcapManager` — the software version of NCAP (Alian et al.,
  HPCA'17) the paper itself builds for comparison (Sec. 6.3): a periodic
  NIC-level RPS monitor that maximizes the V/F of *all* cores on excessive
  load (chip-wide behaviour), optionally disables sleep states while
  boosted, and decays gradually.
* :class:`PartiesManager` — a long-term feedback controller in the style
  of Parties (ASPLOS'19): every 500 ms it compares windowed P99 latency
  against the SLO and steps the V/F state by the slack.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ncap": ("NcapManager",),
    "parties": ("PartiesManager",),
})
