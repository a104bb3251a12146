"""Mode Transition Monitor (Algorithm 1).

Per core, the monitor observes the NAPI context's poll completions and
interrupts. It keeps:

* ``pkt_poll_since_irq`` — polling-mode packets since the last hardware
  interrupt; when it exceeds ``NI_TH`` the monitor notifies the Decision
  Engine that the core cannot keep up at its current V/F (Alg. 1 l.4-6).
* ``poll_cnt`` / ``intr_cnt`` — packets per mode accumulated over the
  periodic window; delivered to the Decision Engine and reset when the
  periodic timer expires (Alg. 1 l.7-12).
"""

from __future__ import annotations

from typing import Callable

from repro.netstack.napi import MODE_POLLING, NapiContext


class ModeTransitionMonitor:
    """Algorithm 1: tracks packets per NAPI mode for one core."""

    def __init__(self, napi: NapiContext, ni_threshold: float,
                 notify: Callable[[], None],
                 report: Callable[[int, int], None]):
        if ni_threshold <= 0:
            raise ValueError("NI_TH must be positive")
        self.napi = napi
        self.ni_threshold = ni_threshold
        self._notify = notify
        self._report = report

        self.poll_cnt = 0
        self.intr_cnt = 0
        self.pkt_poll_since_irq = 0
        self.notifications = 0
        self._armed = True  # re-armed by each interrupt, fires once between

        napi.poll_listeners.append(self._on_poll)
        napi.irq_listeners.append(self._on_irq)

    def detach(self) -> None:
        """Unsubscribe from the NAPI context."""
        self.napi.poll_listeners.remove(self._on_poll)
        self.napi.irq_listeners.remove(self._on_irq)

    # -- NAPI hooks ------------------------------------------------------ #

    def _on_irq(self, napi: NapiContext) -> None:
        self.pkt_poll_since_irq = 0
        self._armed = True

    def _on_poll(self, napi: NapiContext, n_packets: int, mode: str) -> None:
        if mode == MODE_POLLING:
            self.poll_cnt += n_packets
            self.pkt_poll_since_irq += n_packets
            if self._armed and self.pkt_poll_since_irq > self.ni_threshold:
                self._armed = False
                self.notifications += 1
                self._notify()
        else:
            self.intr_cnt += n_packets

    # -- periodic timer ---------------------------------------------------#

    def on_timer(self) -> None:
        """Periodic expiry: report window counters and reset (Alg. 1 l.9-12)."""
        self._report(self.poll_cnt, self.intr_cnt)
        self.poll_cnt = 0
        self.intr_cnt = 0
