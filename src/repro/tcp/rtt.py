"""RTT estimation and retransmission timeout (Jacobson/Karels, RFC 6298)."""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """Smoothed RTT / RTT variance estimator with RFC 6298 RTO computation.

    ``min_rto`` defaults to Linux's 200 ms rather than the RFC's 1 s, since
    the paper's environment is a LAN where Linux's floor is what governs.
    """

    # One per connection endpoint.  Slotted by hand: ``dataclass(slots=True)``
    # needs Python 3.10.
    __slots__ = (
        "alpha", "beta", "k", "min_rto", "max_rto", "clock_granularity",
        "srtt", "rttvar", "samples", "last_sample", "rto",
    )

    def __init__(
        self,
        alpha: float = 1.0 / 8.0,
        beta: float = 1.0 / 4.0,
        k: float = 4.0,
        min_rto: float = 0.2,
        max_rto: float = 120.0,
        clock_granularity: float = 0.001,
    ) -> None:
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.clock_granularity = clock_granularity
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.samples = 0
        self.last_sample: Optional[float] = None
        #: Current retransmission timeout: RFC 6298's initial 1 s until the
        #: first sample.  It changes only in :meth:`sample`, so it is
        #: computed there rather than on every RTO restart that reads it.
        self.rto = 1.0

    def sample(self, rtt: float) -> None:
        """Fold one RTT measurement into the estimate (never from a
        retransmitted segment — Karn's algorithm is enforced by the caller)."""
        if rtt < 0:
            raise ValueError(f"negative RTT sample: {rtt}")
        self.samples += 1
        self.last_sample = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt
        candidate = self.srtt + max(self.clock_granularity, self.k * self.rttvar)
        self.rto = min(self.max_rto, max(self.min_rto, candidate))
