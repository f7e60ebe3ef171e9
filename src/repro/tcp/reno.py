"""Reno congestion control with NewReno partial-ACK handling (RFC 5681/6582).

Kept separate from the connection machinery so the paper's §3.4 claim can be
tested directly: feeding the controller the *per-fragment* ACK numbers of an
aggregated packet must grow cwnd exactly as the individual ACK packets would
have, while feeding only the final cumulative ACK grows it too slowly.
"""

from __future__ import annotations

from typing import Optional

from repro.tcp.seqmath import seq_diff, seq_gt


class RenoState:
    """Congestion-control state for one connection's send side."""

    # One per connection endpoint.  Slotted by hand: ``dataclass(slots=True)``
    # needs Python 3.10.
    __slots__ = ("mss", "initial_cwnd_segments", "cwnd", "ssthresh", "dup_acks", "recover")

    def __init__(self, mss: int = 1448, initial_cwnd_segments: int = 3, ssthresh: int = 1 << 30) -> None:
        self.mss = mss
        self.initial_cwnd_segments = initial_cwnd_segments
        self.cwnd = initial_cwnd_segments * mss
        self.ssthresh = ssthresh
        self.dup_acks = 0
        #: High-water sequence at the moment fast recovery was entered; a
        #: cumulative ACK at or beyond it ends recovery (NewReno).
        self.recover: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def in_recovery(self) -> bool:
        return self.recover is not None

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    # ------------------------------------------------------------------
    def on_new_ack(self, acked_bytes: int) -> None:
        """One ACK advanced snd_una by ``acked_bytes`` (not in recovery).

        Growth is per-*ACK* — which is exactly why the paper's modified TCP
        layer must replay each fragment's ACK (§3.4, case 1): Reno counts
        acknowledgments, not bytes.
        """
        if self.cwnd < self.ssthresh:  # in_slow_start
            self.cwnd += min(acked_bytes, self.mss)
        else:
            # Congestion avoidance: ~1 MSS per RTT, implemented per-ACK.
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)
        self.dup_acks = 0

    def on_duplicate_ack(self, snd_nxt: int, flight_size: int) -> bool:
        """Register a duplicate ACK.  Returns True when the third duplicate
        triggers fast retransmit (caller retransmits snd_una)."""
        self.dup_acks += 1
        if self.dup_acks == 3 and not self.in_recovery:
            self.ssthresh = max(flight_size // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss
            self.recover = snd_nxt
            return True
        if self.in_recovery:
            # Window inflation: each further dup ACK signals a departure.
            self.cwnd += self.mss
        return False

    def on_recovery_ack(self, ack: int, snd_una: int) -> bool:
        """Process a cumulative ACK while in fast recovery.

        Returns True when the ACK is *partial* (NewReno: caller should
        retransmit the next hole immediately); False when recovery ends.
        """
        assert self.recover is not None
        if seq_gt(ack, self.recover) or ack == self.recover:
            # Full acknowledgment: deflate and exit recovery.
            self.cwnd = self.ssthresh
            self.recover = None
            self.dup_acks = 0
            return False
        # Partial ACK: deflate by the amount acked, keep recovering.
        acked = seq_diff(ack, snd_una)
        self.cwnd = max(self.mss, self.cwnd - max(acked, 0) + self.mss)
        return True

    def on_rto(self) -> None:
        """Retransmission timeout: collapse to one segment (RFC 5681 §3.1)."""
        self.ssthresh = max(self.cwnd // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.dup_acks = 0
        self.recover = None
