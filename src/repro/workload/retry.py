"""Client-side request timeouts with capped exponential backoff.

A :class:`RetryPolicy` arms one timeout per in-flight request; a request
whose response has not arrived when the timer fires is retransmitted
after a backoff delay, up to ``max_retries`` times, after which the
client gives up. The policy is a frozen dataclass so it participates in
:mod:`repro.experiments.confighash` like any other config field.

Determinism: retries introduce *no* new randomness — timeout deadlines
and backoff delays are pure functions of the policy and the (already
deterministic) send times, so a retried run is still a pure function of
(config, seed). With ``retry=None`` the clients schedule no timer
events at all and runs stay bit-identical to pre-retry behaviour
(enforced by ``tests/faults/test_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MS, US


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for a client."""

    #: Response deadline measured from each (re)transmission's arrival
    #: at the server NIC.
    timeout_ns: int = 2 * MS
    #: Retransmissions per request before giving up.
    max_retries: int = 2
    #: Backoff before the first retransmission.
    backoff_base_ns: int = 100 * US
    #: Backoff multiplier per successive retransmission.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff delay.
    backoff_cap_ns: int = 4 * MS

    def __post_init__(self):
        # An int: the client pushes the deadline onto the integer clock.
        if not isinstance(self.timeout_ns, int) or self.timeout_ns <= 0:
            raise ValueError("timeout_ns must be a positive int")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ns < 0:
            raise ValueError("backoff_base_ns must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_cap_ns < self.backoff_base_ns:
            raise ValueError("backoff_cap_ns must be >= backoff_base_ns")

    def backoff_ns(self, attempt: int) -> int:
        """Delay before retransmission ``attempt`` (0-based)."""
        delay = self.backoff_base_ns * self.backoff_factor ** attempt
        cap = self.backoff_cap_ns
        return cap if delay > cap else int(delay)
