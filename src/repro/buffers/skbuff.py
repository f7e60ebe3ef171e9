"""The sk_buff analogue.

An :class:`SkBuff` is the host-side packet descriptor that travels through
the (simulated) network stack.  In the baseline path there is one SkBuff per
network packet.  With Receive Aggregation there is one SkBuff per *aggregated*
packet: the head packet supplies the (rewritten) headers and additional
network packets are chained as payload-only fragments, exactly as Linux GRO
chains page fragments (paper §3.2: "chaining is done by setting the fragment
pointers in the sk_buff structure").

The aggregation metadata the paper stores "in the packet metadata structure"
lives here too:

* ``frag_acks`` — the TCP ACK number of every constituent fragment, used by
  the modified TCP layer for congestion-window accounting (§3.4, case 1).
* ``frag_end_seqs`` — per-fragment end sequence numbers, used to generate the
  correct number of ACKs (§3.4, case 2).
* ``template_acks`` — for a *template ACK* skb (§4.2), the full list of ACK
  numbers the driver must expand into individual packets.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.packet import Packet


class SkBuff:
    """Host packet descriptor: one header-bearing packet plus chained fragments."""

    __slots__ = (
        "head",
        "frags",
        "frag_acks",
        "frag_end_seqs",
        "frag_windows",
        "template_acks",
        "pool",
        "freed",
        "alloc_time",
        "csum_verified",
        "payload_len",
    )

    def __init__(self, head: Packet, pool: Optional["BufferPool"] = None, alloc_time: float = 0.0):
        self.head = head
        #: Payload-only fragments chained behind the head (aggregation).
        self.frags: List[Packet] = []
        #: Per-fragment ACK numbers (head first), populated by aggregation.
        self.frag_acks: List[int] = []
        #: Per-fragment end-of-payload sequence numbers (head first).
        self.frag_end_seqs: List[int] = []
        #: Per-fragment advertised windows (head first).
        self.frag_windows: List[int] = []
        #: For template-ACK skbs: ACK numbers to expand at the driver (§4.2).
        self.template_acks: List[int] = []
        self.pool = pool
        self.freed = False
        self.alloc_time = alloc_time
        #: Propagated from the head packet's NIC checksum-offload flag.
        self.csum_verified = head.csum_verified if head is not None else False
        #: Total TCP payload bytes across head and fragments, kept current
        #: by :meth:`chain` (read once per stage on the receive path).
        self.payload_len = head.payload_len if head is not None else 0

    # ------------------------------------------------------------------
    @property
    def nr_frags(self) -> int:
        """Number of chained fragments (0 for an unaggregated packet)."""
        return len(self.frags)

    @property
    def nr_segments(self) -> int:
        """Number of network packets this skb represents (head + fragments)."""
        return 1 + len(self.frags)

    @property
    def is_aggregated(self) -> bool:
        return bool(self.frags) or len(self.frag_acks) > 1

    @property
    def is_template_ack(self) -> bool:
        return bool(self.template_acks)

    @property
    def end_seq(self) -> int:
        """One past the last payload byte carried by this skb."""
        if self.frags:
            return self.frags[-1].end_seq
        return self.head.end_seq

    def chain(self, pkt: Packet) -> None:
        """Chain ``pkt`` behind the last fragment (§3.2).  Fragments are
        chained only through here, so ``payload_len`` stays their total;
        the per-fragment metadata lists are the aggregator's to fill."""
        self.frags.append(pkt)
        self.payload_len += pkt.payload_len

    def adopt_chain(self, other: "SkBuff") -> None:
        """Take over ``other``'s fragments and their metadata: the same host
        packet re-parented to this descriptor (Xen's guest hand-off)."""
        self.frags = other.frags
        self.frag_acks = other.frag_acks
        self.frag_end_seqs = other.frag_end_seqs
        self.frag_windows = other.frag_windows
        self.payload_len = other.payload_len

    def segments(self) -> List[Packet]:
        """All constituent network packets, in sequence order."""
        return [self.head] + self.frags

    def payload_bytes(self) -> bytes:
        """Materialize the full payload (correctness tests only)."""
        parts = []
        for seg in self.segments():
            if seg.payload is None:
                raise ValueError("skb carries length-only payload; no bytes to read")
            parts.append(seg.payload)
        return b"".join(parts)

    # ------------------------------------------------------------------
    def free(self) -> None:
        """Return this skb to its pool.  Double frees raise."""
        if self.freed:
            raise RuntimeError("double free of SkBuff")
        self.freed = True
        if self.pool is not None:
            self.pool.note_free(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "template-ack" if self.is_template_ack else ("aggregated" if self.is_aggregated else "plain")
        return f"SkBuff({kind}, segs={self.nr_segments}, len={self.payload_len})"
