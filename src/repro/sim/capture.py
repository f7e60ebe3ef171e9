"""Packet capture: a tcpdump analogue for simulated links.

A :class:`PacketCapture` taps a link (or any packet stream) and records
:class:`CaptureRecord` entries with timestamps.  Captures support
filtering by flow, summary rendering, basic statistics, and JSON export
— used by tests to assert on wire behaviour and by users to debug
workloads.

With ``max_records`` set the capture is a bounded ring (like tcpdump's
``-c`` combined with a rotating buffer): once full, the *oldest* record is
evicted so the capture always holds the most recent window, and
``records_dropped`` counts the evictions.  The tracer in
:mod:`repro.obs.trace` uses the same drop-oldest policy, so a truncated
capture and a truncated trace describe the same (latest) slice of the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Deque, List, Optional

from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.tcp_header import TcpFlags
from repro.sim.engine import Simulator
from repro.sim.link import Link


@dataclass
class CaptureRecord:
    """One captured packet with its capture timestamp."""

    time: float
    packet: Packet

    @property
    def flow(self) -> FlowKey:
        return FlowKey.of_packet(self.packet)

    def summary(self) -> str:
        pkt = self.packet
        flags = "|".join(f.name for f in TcpFlags if f in pkt.tcp.flags) or "-"
        return (
            f"{self.time * 1e6:12.1f}us  {self.flow!r}  {flags:>9s}"
            f"  seq={pkt.tcp.seq} ack={pkt.tcp.ack} len={pkt.payload_len}"
            f" win={pkt.tcp.window}"
        )

    def to_json(self) -> dict:
        """JSON-ready form of one record (flow rendered, flags by name)."""
        pkt = self.packet
        return {
            "time": self.time,
            "flow": repr(self.flow),
            "seq": pkt.tcp.seq,
            "ack": pkt.tcp.ack,
            "len": pkt.payload_len,
            "win": pkt.tcp.window,
            "flags": [f.name for f in TcpFlags if f in pkt.tcp.flags],
        }


class PacketCapture:
    """Records packets passing a tap point.

    Attach to a link with :meth:`tap_link` (wraps the link's sink) or feed
    packets manually with :meth:`record`.
    """

    def __init__(self, sim: Simulator, name: str = "cap0", max_records: Optional[int] = None):
        self.sim = sim
        self.name = name
        self.max_records = max_records
        #: Bounded ring of the most recent ``max_records`` records
        #: (unbounded when ``max_records`` is None).
        self.records: Deque[CaptureRecord] = deque()
        #: Oldest records evicted because the ring was full.
        self.records_dropped = 0

    @property
    def dropped_records(self) -> int:
        """Backwards-compatible alias for :attr:`records_dropped`."""
        return self.records_dropped

    # ------------------------------------------------------------------
    def tap_link(self, link: Link) -> None:
        """Insert this capture between ``link`` and its existing sink."""
        downstream = link.sink

        def tapped(pkt: Packet) -> None:
            self.record(pkt)
            if downstream is not None:
                downstream(pkt)

        link.sink = tapped

    def record(self, pkt: Packet) -> None:
        if self.max_records is not None and len(self.records) >= self.max_records:
            # Ring semantics: evict the oldest so the capture always holds
            # the most recent window (matches the obs tracer's policy).
            self.records.popleft()
            self.records_dropped += 1
        # Snapshot the frame as it crossed the tap, like tcpdump copying
        # bytes off the wire: the live object may later be recycled through
        # a packet slab and re-stamped for an unrelated flow.
        self.records.append(CaptureRecord(self.sim.now, pkt.copy()))

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[CaptureRecord], bool]) -> List[CaptureRecord]:
        return [rec for rec in self.records if predicate(rec)]

    def by_flow(self, flow: FlowKey) -> List[CaptureRecord]:
        return self.filter(lambda rec: rec.flow == flow)

    def data_packets(self) -> List[CaptureRecord]:
        return self.filter(lambda rec: rec.packet.payload_len > 0)

    def pure_acks(self) -> List[CaptureRecord]:
        return self.filter(lambda rec: rec.packet.is_pure_ack)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def bytes_captured(self) -> int:
        return sum(rec.packet.payload_len for rec in self.records)

    def throughput_bps(self) -> float:
        """Payload throughput over the capture's time span."""
        if len(self.records) < 2:
            return 0.0
        span = self.records[-1].time - self.records[0].time
        if span <= 0:
            return 0.0
        return self.bytes_captured() * 8 / span

    def dump(self, limit: int = 50) -> str:
        lines = [f"capture {self.name!r}: {len(self.records)} packets"]
        if self.records_dropped:
            lines[0] += f" ({self.records_dropped} older dropped)"
        lines += [rec.summary() for rec in islice(self.records, limit)]
        if len(self.records) > limit:
            lines.append(f"... {len(self.records) - limit} more")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The whole capture as one JSON document.

        The shape is what ``python -m repro.obs check`` validates as a
        *capture* document: a ``records`` list of timestamped objects plus
        the ring bookkeeping.
        """
        return {
            "capture": self.name,
            "max_records": self.max_records,
            "records_dropped": self.records_dropped,
            "records": [rec.to_json() for rec in self.records],
        }

    def __len__(self) -> int:
        return len(self.records)
