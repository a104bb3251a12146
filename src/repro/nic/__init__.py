"""NIC substrate: a multi-queue 10GbE NIC with RSS and interrupt moderation.

Models the Intel 82599 used in the paper's testbed: Receive Side Scaling
spreads flows across per-core queues, and interrupt moderation enforces a
minimum interrupt generation gap (10 µs, Sec. 5.1) — which is why
interrupt-mode packet counts are capped while polling-mode counts track
load (Fig. 2).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "packet": ("Packet",),
    "queue": ("NicQueue",),
    "rss": ("RssDistributor",),
    "interrupt": ("InterruptModerator",),
    "nic": ("MultiQueueNic",),
})
