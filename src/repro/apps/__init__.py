"""Latency-critical server applications: memcached and nginx models.

Each application supplies (a) a request factory the client uses to stamp
requests with kind/size/service cost, and (b) per-core worker threads that
pop the socket queue, execute the service cycles, and transmit responses.
Service costs are in *cycles*, so a core's P-state directly scales service
time — the coupling every governor in the paper exploits.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("AppWorkerThread", "ServerApplication"),
    "memcached": ("MemcachedApp",),
    "nginx": ("NginxApp",),
    "registry": ("make_app", "APPLICATIONS"),
})
