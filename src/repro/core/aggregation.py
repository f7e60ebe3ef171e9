"""Receive Aggregation (paper §3).

The :class:`AggregationEngine` sits at the entry point of the network stack
(the receive softirq in Linux terms).  The driver drops *raw* packets — no
sk_buff allocated, no MAC processing done — into a per-CPU, lock-free
aggregation queue (§3.5).  The engine consumes the queue, performs early
demultiplexing (paying the compulsory header cache miss the driver used to
pay), and coalesces eligible in-sequence packets of the same connection into
aggregated host packets, chaining fragments onto a single sk_buff (§3.2).

Eligibility (§3.1) — a packet bypasses aggregation (and flushes any partial
aggregate of its flow first, preserving per-flow ordering) when any of:

* it is not in sequence (by TCP sequence number *and* ACK number),
* it is a zero-length (pure ACK) segment,
* it carries IP options or is an IP fragment,
* its IP header checksum is invalid (verified for real here),
* the NIC did not validate its TCP checksum (offload missing/failed),
* it carries TCP options other than the timestamp option (e.g. SACK),
* it has flags beyond ACK/PSH (SYN, FIN, RST, URG, ECE, CWR).

Work conservation (§3.3/§3.5): the moment the aggregation queue is empty,
every partial aggregate is flushed to the stack — the stack never idles while
packets wait, which is why the latency benchmark (Table 1) is unaffected.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, Iterable, Optional

from repro.buffers.pool import BufferPool
from repro.buffers.skbuff import SkBuff
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.cpu.costmodel import CostModel
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.tcp_header import TcpFlags
from repro.obs.ledger import UNATTRIBUTED
from repro.obs.runtime import active_ledger, active_tracer
from repro.obs.trace import Stage, cpu_tid

#: Raw ACK|PSH bits — the only flags an aggregatable segment may carry (§3.1).
_ACK_PSH_MASK = int(TcpFlags.ACK | TcpFlags.PSH)
_NOT_ACK_PSH = ~_ACK_PSH_MASK
from repro.core.config import OptimizationConfig


class BypassReason(Enum):
    """Why a packet was passed to the stack unaggregated."""

    PURE_ACK = "pure-ack"
    ZERO_LENGTH = "zero-length"
    SPECIAL_FLAGS = "special-flags"
    IP_OPTIONS = "ip-options"
    IP_FRAGMENT = "ip-fragment"
    BAD_IP_CHECKSUM = "bad-ip-checksum"
    NO_CSUM_OFFLOAD = "no-csum-offload"
    TCP_OPTIONS = "tcp-options"


@dataclass
class AggregationStats:
    """Counters for one engine."""

    packets_enqueued: int = 0
    packets_in: int = 0
    eligible: int = 0
    bypassed: int = 0
    bypass_reasons: Dict[str, int] = field(default_factory=dict)
    aggregates_delivered: int = 0
    singles_delivered: int = 0
    fragments_chained: int = 0
    flush_limit: int = 0
    flush_mismatch: int = 0
    flush_work_conserving: int = 0
    flush_eviction: int = 0
    flush_bypass_ordering: int = 0
    #: Partials flushed because the governor entered degraded mode.
    flush_degrade: int = 0
    #: Packets dropped because the sk_buff pool was exhausted.
    dropped_no_buffer: int = 0
    #: Packets delivered as cheap singles while coalescing was degraded.
    packets_degraded: int = 0
    peak_table_occupancy: int = 0

    def note_bypass(self, reason: BypassReason) -> None:
        self.bypassed += 1
        key = reason.value  # an enum property: read once per packet
        self.bypass_reasons[key] = self.bypass_reasons.get(key, 0) + 1

    @property
    def host_packets_delivered(self) -> int:
        return self.aggregates_delivered + self.singles_delivered


class PartialAggregate:
    """A partially aggregated packet waiting in the lookup table."""

    __slots__ = ("skb", "next_seq", "last_ack", "has_timestamp", "count")

    def __init__(self, skb: SkBuff):
        head = skb.head
        self.skb = skb
        self.next_seq = head.end_seq
        self.last_ack = head.tcp.ack
        self.has_timestamp = head.tcp.options.timestamp is not None
        self.count = 1


class AggregationEngine:
    """Per-CPU receive aggregation at the network-stack entry point."""

    def __init__(
        self,
        cpu: Cpu,
        costs: CostModel,
        opt: OptimizationConfig,
        pool: BufferPool,
        deliver: Callable[[SkBuff], None],
        governor=None,
        name: str = "aggr0",
    ):
        if opt.aggregation_limit < 1:
            raise ValueError("aggregation limit must be >= 1")
        self.cpu = cpu
        self.costs = costs
        self.opt = opt
        self.pool = pool
        self.deliver = deliver
        #: Optional :class:`~repro.faults.degradation.CoalesceGovernor`.
        #: ``None`` (the default) keeps ``run()`` on the ungoverned hot
        #: path, byte-identical to the pre-governor engine.
        self.governor = governor
        self.name = name
        self.stats = AggregationStats()
        self._tr = active_tracer()
        #: Cycle ledger captured at construction, same idiom as _tr.
        self._led = active_ledger()
        #: Per-flow expected next sequence number, maintained only by the
        #: governed path as its disorder detector.
        self._gov_next_seq: Dict[FlowKey, int] = {}
        #: The per-CPU lock-free producer/consumer queue (§3.5).  Raw
        #: packets only — no sk_buff has been allocated for them yet.
        self.queue: Deque[Packet] = deque()
        #: Partial aggregates, LRU-ordered (§3.5: "a small lookup table").
        self.table: "OrderedDict[FlowKey, PartialAggregate]" = OrderedDict()

    # ------------------------------------------------------------------
    # producer side (driver)
    # ------------------------------------------------------------------
    def enqueue(self, pkts: Iterable[Packet]) -> None:
        """Driver drops raw packets into the aggregation queue.  Lock-free
        per-CPU, so no locking cycles are charged (§3.5)."""
        before = len(self.queue)
        self.queue.extend(pkts)
        self.stats.packets_enqueued += len(self.queue) - before

    # ------------------------------------------------------------------
    # consumer side (softirq)
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Consume the queue, aggregating; then flush (work conservation)."""
        if self.governor is not None:
            self._run_governed()
            return
        consume = self.cpu.consume
        costs = self.costs
        queue = self.queue
        popleft = queue.popleft
        stats = self.stats
        bypass_reason = self._bypass_reason
        aggregate = self._aggregate
        mac_cost = costs.mac_rx_processing
        match_cost = costs.aggr_match_per_packet
        aggr_cat = Category.AGGR
        led = self._led
        if led is not None:
            led.push_stage("aggr")
            prev_flow = led.set_flow(UNATTRIBUTED)
        while queue:
            pkt = popleft()
            stats.packets_in += 1
            if led is not None:
                led.set_flow(led.flow_for_port(pkt.tcp.dst_port))
            # Early demultiplex: this is where the compulsory cache miss on
            # the cold packet header is now paid (it left the driver).
            consume(mac_cost, aggr_cat)
            consume(match_cost, aggr_cat)
            reason = bypass_reason(pkt)
            if reason is not None:
                stats.note_bypass(reason)
                self._bypass(pkt, reason)
                continue
            stats.eligible += 1
            aggregate(pkt)
        if led is not None:
            led.set_flow(prev_flow)
        # Queue empty: the stack is about to go idle — flush everything.
        self._flush_all(work_conserving=True)
        if led is not None:
            led.pop_stage()

    def _run_governed(self) -> None:
        """The governed consume loop: identical costs and behaviour to
        :meth:`run` while healthy; under a disorder storm the governor
        degrades the engine to cheap single delivery (no match/table work)
        until the wire quiets down (hysteresis — see
        :mod:`repro.faults.degradation`)."""
        consume = self.cpu.consume
        costs = self.costs
        queue = self.queue
        popleft = queue.popleft
        stats = self.stats
        governor = self.governor
        next_seq = self._gov_next_seq
        bypass_reason = self._bypass_reason
        mac_cost = costs.mac_rx_processing
        match_cost = costs.aggr_match_per_packet
        aggr_cat = Category.AGGR
        now = self.cpu.sim.now
        led = self._led
        if led is not None:
            led.push_stage("aggr")
            prev_flow = led.set_flow(UNATTRIBUTED)
        fed_upstream = governor.fed_upstream
        while queue:
            pkt = popleft()
            stats.packets_in += 1
            if led is not None:
                led.set_flow(led.flow_for_port(pkt.tcp.dst_port))
            consume(mac_cost, aggr_cat)
            if fed_upstream:
                # A repair stage upstream owns the disorder detector (it
                # sees arrival order *before* sorting); we only read the
                # mode.  Observing here too would average the post-sort
                # (clean) signal into the rate and make the modes flap.
                degraded = governor.degraded
                if degraded and self.table:
                    # Nothing may stay parked while we stop matching.
                    while self.table:
                        _, partial = self.table.popitem(last=False)
                        stats.flush_degrade += 1
                        self._finalize(partial)
            # Disorder detector: out-of-sequence arrival on a known flow,
            # or a frame that failed checksum verification.
            elif pkt.payload_len > 0:
                key = pkt.flow_key
                expected = next_seq.get(key)
                disorder = (
                    (expected is not None and pkt.tcp.seq != expected)
                    or not pkt.csum_verified
                )
                next_seq[key] = pkt.end_seq
                was_degraded = governor.degraded
                degraded = governor.observe(disorder, now)
                if degraded and not was_degraded:
                    # Entering degraded mode: nothing may stay parked while
                    # we stop matching against the table.
                    while self.table:
                        _, partial = self.table.popitem(last=False)
                        stats.flush_degrade += 1
                        self._finalize(partial)
            else:
                degraded = governor.degraded
            reason = bypass_reason(pkt)
            if reason is not None:
                consume(match_cost, aggr_cat)
                stats.note_bypass(reason)
                self._bypass(pkt, reason)
            elif degraded:
                self._deliver_single(pkt)
            else:
                consume(match_cost, aggr_cat)
                stats.eligible += 1
                self._aggregate(pkt)
        if led is not None:
            led.set_flow(prev_flow)
        self._flush_all(work_conserving=True)
        if led is not None:
            led.pop_stage()

    def _deliver_single(self, pkt: Packet) -> None:
        """Degraded-mode delivery: no match, no table — one cheap single."""
        skb = self.pool.alloc(pkt, now=self.cpu.sim.now)
        if skb is None:
            self.stats.dropped_no_buffer += 1
            return
        self.cpu.consume(self.costs.skb_alloc, Category.BUFFER)
        self.cpu.consume(self.costs.aggr_deliver_single, Category.AGGR)
        self.stats.singles_delivered += 1
        self.stats.packets_degraded += 1
        self.governor.stats.packets_degraded += 1
        self.deliver(skb)

    # ------------------------------------------------------------------
    # eligibility (§3.1)
    # ------------------------------------------------------------------
    def _bypass_reason(self, pkt: Packet) -> Optional[BypassReason]:
        if pkt.payload_len == 0:
            return BypassReason.PURE_ACK if pkt.is_pure_ack else BypassReason.ZERO_LENGTH
        tcp = pkt.tcp
        ip = pkt.ip
        if int(tcp.flags) & _NOT_ACK_PSH:
            return BypassReason.SPECIAL_FLAGS
        if ip.has_options:
            return BypassReason.IP_OPTIONS
        if ip.is_fragment:
            return BypassReason.IP_FRAGMENT
        if not pkt.csum_verified:
            return BypassReason.NO_CSUM_OFFLOAD
        if not ip.checksum_ok():
            return BypassReason.BAD_IP_CHECKSUM
        if not tcp.options.only_timestamp():
            return BypassReason.TCP_OPTIONS
        return None

    # ------------------------------------------------------------------
    # aggregation proper
    # ------------------------------------------------------------------
    def _aggregate(self, pkt: Packet) -> None:
        key = pkt.flow_key
        table = self.table
        partial = table.get(key)
        if partial is not None:
            tcp = pkt.tcp
            ack = tcp.ack
            limit = self.opt.aggregation_limit
            # §3.1 in-sequence test: seq contiguous, ACK monotonic (seq_ge
            # as one masked subtract), consistent timestamp presence.
            if (
                tcp.seq == partial.next_seq
                and ((ack - partial.last_ack) & 0xFFFFFFFF) < 0x80000000
                and (tcp.options.timestamp is not None) == partial.has_timestamp
                and partial.count < limit
            ):
                self.cpu.consume(self.costs.aggr_chain_per_fragment, Category.AGGR)
                # Chain the fragment and record its §3.4 metadata.
                skb = partial.skb
                end = (tcp.seq + pkt.payload_len) & 0xFFFFFFFF
                skb.chain(pkt)
                skb.frag_acks.append(ack)
                skb.frag_end_seqs.append(end)
                skb.frag_windows.append(tcp.window)
                partial.next_seq = end
                partial.last_ack = ack
                count = partial.count + 1
                partial.count = count
                self.stats.fragments_chained += 1
                tr = self._tr
                if tr is not None:
                    tr.event(
                        Stage.AGGR_MERGE,
                        self.cpu.now_done,
                        tid=cpu_tid(self.cpu),
                        args={"seq": tcp.seq, "frags": count},
                    )
                table.move_to_end(key)
                if count >= limit:
                    self.stats.flush_limit += 1
                    del table[key]
                    self._finalize(partial)
                return
            # Mismatch (gap / ACK regress / option change) or limit edge:
            # deliver the partial, then start fresh with this packet.
            self.stats.flush_mismatch += 1
            del table[key]
            self._finalize(partial)
        self._start_partial(key, pkt)

    def _start_partial(self, key: FlowKey, pkt: Packet) -> None:
        if len(self.table) >= self.opt.lookup_table_size:
            evict_key, evicted = self.table.popitem(last=False)  # LRU
            self.stats.flush_eviction += 1
            self._finalize(evicted)
        # §3.5: the sk_buff is allocated here, once per aggregated packet,
        # not per network packet.
        skb = self.pool.alloc(pkt, now=self.cpu.sim.now)
        if skb is None:
            # Pool exhausted (memory-pressure fault window): drop, as a
            # failed netdev_alloc_skb would.  TCP retransmission recovers.
            self.stats.dropped_no_buffer += 1
            return
        self.cpu.consume(self.costs.skb_alloc, Category.BUFFER)
        skb.frag_acks.append(pkt.tcp.ack)
        skb.frag_end_seqs.append(pkt.end_seq)
        skb.frag_windows.append(pkt.tcp.window)
        partial = PartialAggregate(skb)
        self.table[key] = partial
        self.stats.peak_table_occupancy = max(self.stats.peak_table_occupancy, len(self.table))

    def _finalize(self, partial: PartialAggregate) -> None:
        """Rewrite the aggregated packet's header (§3.2) and deliver it."""
        skb = partial.skb
        head = skb.head
        if skb.frags:
            last = skb.frags[-1]
            # §3.2 header rewrite: the IP checksum is recomputed (for real);
            # the TCP checksum is NOT — the packet is marked as
            # hardware-verified instead.
            head.finalize_aggregate_header(
                skb.payload_len, last.tcp.ack, last.tcp.window, last.tcp.options.timestamp
            )
            self.cpu.consume(self.costs.aggr_finalize_per_host_packet, Category.AGGR)
        else:
            # Nothing was coalesced: no header rewrite, no checksum — just
            # hand the single packet over (≈ the §5.5 limit-1 ablation).
            self.cpu.consume(self.costs.aggr_deliver_single, Category.AGGR)
        skb.csum_verified = True
        self.stats.aggregates_delivered += 1
        tr = self._tr
        if tr is not None:
            tr.event(
                Stage.AGGR_DELIVER,
                self.cpu.now_done,
                tid=cpu_tid(self.cpu),
                args={"frags": partial.count, "len": skb.payload_len},
            )
        self.deliver(skb)

    # ------------------------------------------------------------------
    # bypass and flushing
    # ------------------------------------------------------------------
    def _bypass(self, pkt: Packet, reason: BypassReason) -> None:
        """Deliver ``pkt`` unmodified, after flushing its flow's partial
        aggregate so per-flow ordering is preserved (§3.1)."""
        key = pkt.flow_key
        partial = self.table.pop(key, None)
        if partial is not None:
            self.stats.flush_bypass_ordering += 1
            self._finalize(partial)
        skb = self.pool.alloc(pkt, now=self.cpu.sim.now)
        if skb is None:
            self.stats.dropped_no_buffer += 1
            return
        self.cpu.consume(self.costs.skb_alloc, Category.BUFFER)
        self.stats.singles_delivered += 1
        self.deliver(skb)

    def _flush_all(self, work_conserving: bool = False) -> None:
        while self.table:
            _, partial = self.table.popitem(last=False)
            if work_conserving:
                self.stats.flush_work_conserving += 1
            self._finalize(partial)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AggregationEngine({self.name!r}, limit={self.opt.aggregation_limit},"
            f" queued={len(self.queue)}, partials={len(self.table)})"
        )
