"""Hardware Large Receive Offload (the related-work comparator, paper §6).

Models NIC-resident LRO in the style of the Neterion 10GbE adapters the
paper contrasts against: the *NIC* coalesces in-sequence TCP segments before
DMA, so the host sees one large packet per burst.  Differences from the
paper's software Receive Aggregation, faithfully reproduced:

* Coalescing costs no host CPU cycles (it happens in hardware), and the
  driver's per-packet work is paid per *aggregate* — LRO removes even the
  driver overhead that software aggregation cannot (§6).
* The host stack receives a plain large segment with **no per-fragment
  metadata**: the stock TCP layer sees one segment where there were many, so
  ACK generation and congestion-window accounting undercount — exactly the
  §3.4 problem the paper's modified TCP layer fixes for software
  aggregation, and which hardware LRO of the era simply lived with.
* No Acknowledgment Offload: the Neterion NIC "does not offer support for
  reducing the overhead on the ACK transmit path" (§6).

The merged segment is represented as a single :class:`Packet` whose
``lro_segs`` attribute records how many wire packets it stands for (used
only for accounting — the stack cannot see it, just as a real stack cannot).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.tcp_header import TcpFlags
from repro.obs.runtime import active_tracer
from repro.obs.trace import Stage
from repro.tcp.seqmath import seq_ge

#: Raw flag bits a mergeable segment must not carry: anything but ACK|PSH.
_NOT_ACK_PSH = ~int(TcpFlags.ACK | TcpFlags.PSH)


class _LroSession:
    """One in-progress hardware merge."""

    __slots__ = ("packet", "next_seq", "last_ack", "payloads", "segs")

    def __init__(self, pkt: Packet):
        self.packet = pkt
        self.next_seq = pkt.end_seq
        self.last_ack = pkt.tcp.ack
        self.payloads: Optional[List[bytes]] = [pkt.payload] if pkt.payload is not None else None
        self.segs = 1


class LroEngine:
    """Per-NIC hardware coalescing front-end.

    ``accept(pkt)`` returns a list of packets ready for the rx ring (merged
    or passed through); ``flush()`` returns everything still pending and is
    called by the NIC right before raising an interrupt, mirroring how
    hardware closes its sessions on interrupt assertion.
    """

    def __init__(self, limit: int = 20, sessions: int = 8, governor=None):
        if limit < 1:
            raise ValueError("LRO limit must be >= 1")
        self.limit = limit
        self.max_sessions = sessions
        #: Optional :class:`~repro.faults.degradation.CoalesceGovernor`
        #: (mirrors real NICs' per-port LRO disable bit).  ``None`` keeps
        #: ``accept()`` on the ungoverned hot path.
        self.governor = governor
        #: Optional :class:`~repro.buffers.slab.PacketSlab` that takes each
        #: segment once it is merged into a session head.  Attached by the
        #: receiver machine; ``None`` leaves merged segments to the collector.
        self.slab = None
        self.passthrough_degraded = 0
        self.table: Dict[FlowKey, _LroSession] = {}
        self.merged_segments = 0
        self.flushes = 0
        self._tr = active_tracer()

    # ------------------------------------------------------------------
    def _mergeable(self, pkt: Packet) -> bool:
        if pkt.payload_len == 0:
            return False
        if int(pkt.tcp.flags) & _NOT_ACK_PSH:
            return False
        if pkt.ip.has_options or pkt.ip.is_fragment:
            return False
        if not pkt.csum_verified:
            return False
        if not pkt.tcp.options.only_timestamp():
            return False
        return True

    def accept(self, pkt: Packet) -> List[Packet]:
        governor = self.governor
        if governor is not None and pkt.payload_len > 0:
            if governor.fed_upstream:
                # A repair stage downstream owns the disorder detector; we
                # only read the mode.  While it sorts, hardware merging is
                # off — the sort needs the individual wire frames, and the
                # software aggregation engine re-coalesces them after.
                if governor.lro_bypass:
                    self.passthrough_degraded += 1
                    out = []
                    session = self.table.pop(pkt.flow_key, None)
                    if session is not None:
                        out.append(self._close(session))
                    out.append(pkt)
                    return out
            else:
                key = pkt.flow_key
                session = self.table.get(key)
                disorder = not pkt.csum_verified or (
                    session is not None and pkt.tcp.seq != session.next_seq
                )
                if governor.observe(disorder, pkt.rx_time):
                    # Degraded: coalescing is off — close this flow's open
                    # session (ordering) and pass the frame straight through.
                    self.passthrough_degraded += 1
                    out = []
                    if session is not None:
                        del self.table[key]
                        out.append(self._close(session))
                    out.append(pkt)
                    return out
        out: List[Packet] = []
        if not self._mergeable(pkt):
            key = pkt.flow_key
            session = self.table.pop(key, None)
            if session is not None:
                out.append(self._close(session))
            out.append(pkt)
            return out

        key = pkt.flow_key
        session = self.table.get(key)
        if session is not None:
            fits = (
                pkt.tcp.seq == session.next_seq
                and seq_ge(pkt.tcp.ack, session.last_ack)
                and session.segs < self.limit
            )
            if fits:
                self._merge(session, pkt)
                if session.segs >= self.limit:
                    del self.table[key]
                    out.append(self._close(session))
                return out
            del self.table[key]
            out.append(self._close(session))
        if len(self.table) >= self.max_sessions:
            _, evicted = self.table.popitem()
            out.append(self._close(evicted))
        self.table[key] = _LroSession(pkt)
        return out

    def flush(self) -> List[Packet]:
        """Close every open session (hardware does this on interrupt)."""
        out = [self._close(session) for session in self.table.values()]
        self.table.clear()
        if out:
            self.flushes += 1
        return out

    # ------------------------------------------------------------------
    def _merge(self, session: _LroSession, pkt: Packet) -> None:
        head = session.packet
        head.absorb_segment(
            pkt.payload_len, pkt.tcp.ack, pkt.tcp.window, pkt.tcp.options.timestamp
        )
        if session.payloads is not None and pkt.payload is not None:
            session.payloads.append(pkt.payload)
        else:
            session.payloads = None
        session.next_seq = pkt.end_seq
        session.last_ack = pkt.tcp.ack
        session.segs += 1
        self.merged_segments += 1
        tr = self._tr
        if tr is not None:
            # The absorbed segment's own arrival time stamps the merge.
            tr.event(Stage.LRO_MERGE, pkt.rx_time, args={"segs": session.segs})
        slab = self.slab
        if slab is not None:
            # The head now carries everything the segment held; nothing
            # downstream of the NIC ever sees the segment itself.
            slab.release(pkt)

    def _close(self, session: _LroSession) -> Packet:
        pkt = session.packet
        if session.payloads is not None and session.segs > 1:
            pkt.set_joined_payload(b"".join(session.payloads))
        pkt.refresh_lengths()
        pkt.lro_segs = session.segs
        tr = self._tr
        if tr is not None:
            tr.event(Stage.LRO_CLOSE, pkt.rx_time, args={"segs": session.segs})
        return pkt
