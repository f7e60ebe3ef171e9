"""Acknowledgment Offload (paper §4).

Instead of pushing N nearly-identical pure-ACK packets through the transmit
path, the TCP layer emits one *template* ACK: the first ACK packet of the
sequence plus the list of subsequent ACK numbers, stored in the sk_buff
metadata (§4.2).  The driver — the last software stage before the wire —
expands the template into the individual ACK packets, rewriting the ACK
number and fixing the TCP checksum incrementally (RFC 1624), exactly as a
real driver would patch the few differing bytes.

The functions here are pure packet surgery; the cycle accounting for
template construction (TCP layer) and expansion (driver) is charged by their
callers.
"""

from __future__ import annotations

from typing import List, Optional

from repro.buffers.pool import BufferPool
from repro.buffers.skbuff import SkBuff
from repro.buffers.slab import PacketSlab
from repro.net.packet import Packet
from repro.tcp.connection import AckEvent, TcpConnection


def build_template_ack_skb(
    conn: TcpConnection,
    event: AckEvent,
    pool: BufferPool,
    now: float = 0.0,
) -> Optional[SkBuff]:
    """Build the template-ACK sk_buff for a batch of consecutive ACKs.

    The head packet is the *first* ACK of the sequence; the ACK numbers of
    the whole batch (including the first) are stored in the sk_buff metadata
    for the driver (§4.2).  Returns ``None`` when the sk_buff pool is
    exhausted (memory-pressure fault window); the caller falls back to the
    unbatched per-ACK transmit path.
    """
    if not event.acks:
        raise ValueError("empty ACK batch")
    head = conn.build_ack_packet(event.acks[0], event)
    # The template carries a real checksum so expansion can patch it
    # incrementally.
    head.fill_checksums()
    skb = pool.alloc(head, now=now)
    if skb is None:
        return None
    skb.template_acks = list(event.acks)
    return skb


def expand_template(skb: SkBuff, slab: Optional[PacketSlab] = None) -> List[Packet]:
    """Driver-side expansion: one real ACK packet per stored ACK number.

    Each packet is a copy of the template head with the ACK-number field
    rewritten and both checksums fixed incrementally.  The first entry
    reuses the template's own numbers (its checksum is already correct).
    With ``slab`` each copy is a dead packet from its freelist re-stamped
    in place (see :meth:`Packet.copy`); without one, as in an out-of-band
    check, the freelist is left untouched.
    """
    if not skb.is_template_ack:
        raise ValueError("not a template-ACK skb")
    head = skb.head
    out: List[Packet] = []
    for ack in skb.template_acks:
        pkt = head.copy(slab)
        pkt.rewrite_ack_incremental(ack)
        out.append(pkt)
    return out
