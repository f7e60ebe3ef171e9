"""Packet slab: freelist recycling of wire-packet objects.

Steady-state streams allocate one :class:`~repro.net.packet.Packet` (plus an
IPv4 and a TCP header object) per segment, use it for a few microseconds of
simulated time, and drop it — at 10k connections that is hundreds of
thousands of short-lived Python objects per simulated second, and allocator/
GC pressure dominates the real hot loop.  The slab closes the loop: when the
receive path frees an sk_buff, hardware LRO merges a segment into a session
head, or a client host finishes with an ACK, the dead packet goes on a
freelist, and :meth:`~repro.net.packet.PacketTemplate.make` (a sender's
segment) or :meth:`Packet.copy(slab) <repro.net.packet.Packet.copy>` (the
ACK-offload driver's clone of a template ACK) re-stamps a freelisted packet
instead of building a fresh one.  With both the senders' segments and the
driver's ACK clones drawn from it, the freelist holds about what the rig
has in flight rather than growing to its cap.

One slab is shared per rig (server pool + every client + every connection
template), so data segments freed by the server feed the senders' templates
and ACKs freed by the clients feed the server's — header fields are fully
re-initialized from the template at acquire time, so reuse across
connections and directions is safe by construction.

Safety:

* only length-only packets recycle (``payload is None``); byte-accurate
  packets may be retained by correctness checks and are left to the GC;
* every freelisted packet is flagged ``_slab_free``; releasing one twice
  raises immediately, and the runtime sanitizer audits that no packet still
  resident in a NIC ring, LRO table, aggregation queue or repair hold
  buffer carries the flag (reuse-after-free);
* the freelist is bounded (:attr:`capacity`) so a burst cannot pin
  unbounded garbage.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.packet import Packet


class SlabViolation(RuntimeError):
    """A packet was freed into the slab twice (use-after-free precursor)."""


class PacketSlab:
    """Bounded freelist of dead, length-only :class:`Packet` objects."""

    __slots__ = ("capacity", "free", "recycled", "released", "refused", "overflow", "misses")

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity
        #: The freelist proper.  ``PacketTemplate.make`` pops from here.
        self.free: List[Packet] = []
        #: Packets re-stamped from the freelist == allocations saved.
        self.recycled = 0
        #: Packets accepted onto the freelist.
        self.released = 0
        #: Release attempts refused (materialized payload).
        self.refused = 0
        #: Release attempts dropped because the freelist was full.
        self.overflow = 0
        #: Acquire attempts that found the freelist empty (the template fell
        #: back to a fresh allocation — freelist misses).
        self.misses = 0

    # ------------------------------------------------------------------
    def release(self, pkt: Packet) -> bool:
        """Offer a dead packet to the freelist.

        Refuses packets carrying real payload bytes (tests may hold
        references for content verification); raises on double release.
        Returns True iff the packet was accepted.
        """
        if pkt.payload is not None:
            self.refused += 1
            return False
        if pkt._slab_free:
            raise SlabViolation(
                f"packet released to slab twice: {pkt!r} — "
                "two owners freed the same object"
            )
        if len(self.free) >= self.capacity:
            self.overflow += 1
            return False
        pkt._slab_free = True
        self.free.append(pkt)
        self.released += 1
        return True

    def acquire(self) -> Optional[Packet]:
        """Pop a recycled packet (flag cleared) or None if the list is empty.

        The caller (``PacketTemplate.make`` or ``Packet.copy``) must
        re-initialize **every** header field and Packet slot before the
        object escapes.
        """
        free = self.free
        if not free:
            self.misses += 1
            return None
        pkt = free.pop()
        pkt._slab_free = False
        self.recycled += 1
        return pkt

    # ------------------------------------------------------------------
    @property
    def allocations_saved(self) -> int:
        """Packet (+2 header object) constructions avoided so far."""
        return self.recycled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PacketSlab(free={len(self.free)}, recycled={self.recycled}, "
            f"released={self.released})"
        )
