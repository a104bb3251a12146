"""Linux network-stack substrate: NAPI, softirq, ksoftirqd, sockets.

Implements the packet-processing machinery of Fig. 1: the NIC raises an
interrupt, the hardirq handler schedules the NET_RX softirq, and the NAPI
poll loop processes Rx packets and Tx completions in budgeted batches with
interrupts masked. A session that keeps finding work past its budgets is
deferred to ksoftirqd (a task-priority thread), and a drained session
re-enables the interrupt — these transitions between *interrupt* and
*polling* modes are exactly what NMAP monitors.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "napi": ("NapiConfig", "NapiContext", "MODE_INTERRUPT", "MODE_POLLING"),
    "ksoftirqd": ("KsoftirqdThread",),
    "socket": ("SocketQueue",),
    "stack": ("NetworkStack", "StackConfig"),
})
