"""Sort-and-coalesce reorder repair (Wu et al., "Sorting Reordered Packets
with Interrupt Coalescing").

The :class:`ReorderRepairBuffer` is a bounded, per-flow hold buffer staged
between the driver's ring drain and the aggregation queue.  While the
governor is in ``MODE_SORT`` it parks out-of-order data frames — at most
``depth`` per flow, each for at most ``hold_window_s`` of simulated time —
and releases them in sequence order, so the aggregation engine downstream
sees an in-sequence stream and keeps coalescing (and TCP never sees the
reorder, so no dupACK bursts, no spurious fast retransmits, no congestion-
window collapse).  The interrupt-coalescing window the driver already waits
out is exactly the latency budget the sort spends.

Placement: the driver owns one buffer per queue and routes drained packets
through :meth:`process` before ``aggregator.enqueue`` — the same seam at
every queue count (via the kernel with one queue, via the per-queue
:class:`~repro.mq.kernel.SoftirqPort` with more), so all repair work
happens on the CPU that owns the queue (no cross-CPU traffic).

Cost model: every probe, sorted insert, and release is charged through
``Cpu.consume`` under :attr:`~repro.cpu.categories.Category.REPAIR`, inside
ledger lifecycle stage ``"repair"`` so ``repro.obs diff`` can price the
stage exactly.  In ``MODE_COALESCE`` the buffer is a free observe-only
pass-through (precedent: the governed aggregation engine's disorder
detector charges nothing either); in ``MODE_DISABLE`` it is a free
pass-through.

Release rules (each audited by the sanitizer, each with a tamper test):

* **in order** — an arriving frame fills the gap: release it plus every
  held frame that is now contiguous;
* **overflow** — the flow's buffer is full: release the whole run in
  sequence order and adopt its end (the gap is declared lost; TCP recovers
  it normally, which is still strictly better than delivering the run
  scrambled);
* **deadline** — the oldest held frame has waited ``hold_window_s``: a
  timer releases the flow's run in sequence order (the backstop that
  bounds added latency and guarantees no frame is parked forever);
* **flush** — the governor left ``MODE_SORT``, a control frame (SYN/FIN/
  RST or zero payload) must not overtake held data, or the driver reset:
  release everything immediately.

Duplicates never double-park: a frame at or before the release point, or
an RTO-retransmitted copy of a frame already held, passes straight
through for TCP to discard — the buffer holds at most one copy of any
segment, so its sequence order is strictly increasing.

Conservation is structural: every frame entering :meth:`process` is
counted in, every frame emitted (returned or sent through the deadline
sink) is counted out, and ``frames_in == frames_out + occupancy`` at all
times — the sanitizer audits it, along with the per-flow bound, sorted
order, release monotonicity, and the deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import RepairConfig
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.faults.degradation import MODE_SORT, CoalesceGovernor
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.net.tcp_header import TcpFlags
from repro.obs.runtime import active_ledger, active_tracer
from repro.obs.trace import Stage, cpu_tid
from repro.tcp.seqmath import seq_gt, seq_le, seq_lt

#: Control flags that terminate a sort run: such frames are never held, and
#: any held data of their flow is flushed in front of them (ordering).
_SYN_FIN_RST = int(TcpFlags.SYN | TcpFlags.FIN | TcpFlags.RST)


@dataclass
class RepairStats:
    """Counters for one repair buffer (one driver queue)."""

    #: Every frame handed to :meth:`ReorderRepairBuffer.process`.
    frames_in: int = 0
    #: Every frame emitted (returned from ``process`` or released through
    #: the deadline sink).  ``frames_in == frames_out + occupancy`` always.
    frames_out: int = 0
    #: Frames parked in a hold buffer (each is later counted by exactly
    #: one of the ``releases_*`` counters).
    holds: int = 0
    releases_in_order: int = 0
    releases_deadline: int = 0
    releases_overflow: int = 0
    releases_flush: int = 0
    #: Hold-window timers that matured with frames still parked.
    deadline_fires: int = 0
    #: Longest any frame was parked, in integer nanoseconds.
    max_hold_ns: int = 0
    #: High-water mark of total parked frames across all flows.
    peak_occupancy: int = 0


class _FlowState:
    """Per-flow repair state."""

    __slots__ = ("expected", "held", "deadline", "episode", "release_pending")

    def __init__(self) -> None:
        #: Next expected sequence number (None until the first data frame).
        #: Tracks *release* order while sorting, *arrival* order otherwise
        #: (matching the governed aggregation engine's disorder detector).
        self.expected: Optional[int] = None
        #: Parked frames as ``(arrival_s, Packet)``, sorted by ``tcp.seq``.
        self.held: List[Tuple[float, Packet]] = []
        #: Sim-time the oldest parked frame's hold window expires.
        self.deadline: Optional[float] = None
        #: Bumped whenever ``held`` empties; a matured timer carrying a
        #: stale episode is a no-op (cheap timer cancellation).
        self.episode = 0
        #: True between a matured deadline and its CPU drain task running —
        #: tells the sanitizer the overdue hold is already being serviced.
        self.release_pending = False


class ReorderRepairBuffer:
    """Bounded per-flow sort stage between ring drain and aggregation."""

    __slots__ = (
        "cpu", "config", "governor", "sink", "name", "stats", "flows",
        "occupancy", "_tr", "_led",
    )

    def __init__(
        self,
        cpu: Cpu,
        config: RepairConfig,
        governor: CoalesceGovernor,
        sink: Callable[[List[Packet]], None],
        name: str = "repair0",
    ) -> None:
        self.cpu = cpu
        self.config = config
        self.governor = governor
        #: Where deadline-released frames go (the driver's aggregation
        #: enqueue + softirq kick); batch releases inside ``process`` are
        #: returned to the caller instead.
        self.sink = sink
        self.name = name
        self.stats = RepairStats()
        self.flows: Dict[FlowKey, _FlowState] = {}
        #: Total parked frames across all flows (live gauge).
        self.occupancy = 0
        self._tr = active_tracer()
        #: Cycle ledger captured at construction, same idiom as _tr.
        self._led = active_ledger()
        governor.enable_sort()

    # ------------------------------------------------------------------
    # the ISR-side seam
    # ------------------------------------------------------------------
    def process(self, pkts: List[Packet], now: float) -> List[Packet]:
        """Run one drained batch through the repair stage.

        Feeds the governor's disorder detector (arrival order, upstream of
        the sort — see :mod:`repro.faults.degradation`), parks/releases
        frames per the mode, and returns the frames ready for
        ``aggregator.enqueue`` in their repaired order.
        """
        governor = self.governor
        stats = self.stats
        stats.frames_in += len(pkts)
        out: List[Packet] = []
        led = self._led
        if led is not None:
            led.push_stage("repair")
        if self.occupancy and governor.mode != MODE_SORT:
            # The mode changed since the last batch (another queue's signal,
            # on shared governors): nothing stays parked outside MODE_SORT.
            self._flush_into(out, now)
        consume = self.cpu.consume
        costs = self.cpu.costs
        depth = self.config.depth
        repair_cat = Category.REPAIR
        for pkt in pkts:
            if pkt.payload_len == 0:
                # Pure ACK / control frame: carries no stream data.  It must
                # not overtake held data of its own flow.
                st = self.flows.get(pkt.flow_key)
                if st is not None and st.held:
                    stats.releases_flush += self._drain_flow(st, out, now)
                out.append(pkt)
                continue
            key = pkt.flow_key
            st = self.flows.get(key)
            if st is None:
                st = self.flows[key] = _FlowState()
            expected = st.expected
            disorder = (
                (expected is not None and pkt.tcp.seq != expected)
                or not pkt.csum_verified
            )
            governor.observe(disorder, now)
            if governor.mode != MODE_SORT:
                # Coalesce (healthy) or disable (storm too violent to sort):
                # free pass-through; the detector tracks arrival order.
                if st.held:
                    stats.releases_flush += self._drain_flow(st, out, now)
                st.expected = pkt.end_seq
                out.append(pkt)
                continue
            # ---- MODE_SORT ----
            consume(costs.repair_probe_per_packet, repair_cat)
            if (int(pkt.tcp.flags) & _SYN_FIN_RST) or not pkt.csum_verified:
                # Never park control or unverifiable frames; held data of
                # the flow goes first (ordering), then the frame itself.
                if st.held:
                    stats.releases_flush += self._drain_flow(st, out, now)
                st.expected = pkt.end_seq
                out.append(pkt)
                continue
            seq = pkt.tcp.seq
            if expected is None or seq_le(seq, expected):
                # In sequence (or an old duplicate/overlap): release now,
                # then drain every held frame that became contiguous.
                if expected is None or seq_gt(pkt.end_seq, expected):
                    st.expected = pkt.end_seq
                out.append(pkt)
                if st.held:
                    self._drain_in_order(st, out, now)
                continue
            # Future frame (a gap is in front of it): park it, sorted.
            held = st.held
            pos = self._held_position(held, seq)
            if pos is None:
                # A retransmitted copy of a frame already parked (RTO fired
                # while the gap was outstanding): holding both would release
                # the same bytes twice from one buffer.  Pass the duplicate
                # through for TCP to discard, keep the parked original.
                out.append(pkt)
                continue
            consume(costs.repair_insert_per_packet, repair_cat)
            stats.holds += 1
            self.occupancy += 1
            if self.occupancy > stats.peak_occupancy:
                stats.peak_occupancy = self.occupancy
            was_empty = not held
            held.insert(pos, (now, pkt))
            if len(held) > depth:
                # Overflow: the gap is declared lost; release the whole run
                # in sequence order and adopt its end.
                stats.releases_overflow += self._drain_flow(st, out, now)
            elif was_empty:
                st.deadline = now + self.config.hold_window_s
                self.cpu.sim.call_at(
                    st.deadline, self._deadline_fire, key, st.episode
                )
        stats.frames_out += len(out)
        if led is not None:
            led.pop_stage()
        return out

    # ------------------------------------------------------------------
    # hold-buffer mechanics
    # ------------------------------------------------------------------
    @staticmethod
    def _held_position(
        held: List[Tuple[float, Packet]], seq: int
    ) -> Optional[int]:
        """Insertion index keeping ``held`` sorted by sequence number, or
        ``None`` if a frame with this sequence is already parked (the buffer
        holds at most one copy of any segment — strictly increasing order is
        a sanitizer invariant).

        Linear scan: the buffer is at most ``depth`` entries and new frames
        usually append (reorder tails), so this mirrors the cache-resident
        list walk the cost model charges for.
        """
        for i, (_, hp) in enumerate(held):
            hseq = hp.tcp.seq
            if seq == hseq:
                return None
            if seq_lt(seq, hseq):
                return i
        return len(held)

    def _release_one(
        self, st: _FlowState, out: List[Packet], now: float
    ) -> None:
        """Pop the lowest-sequence held frame into ``out`` (charged)."""
        t_held, hp = st.held.pop(0)
        self.cpu.consume(self.cpu.costs.repair_release_per_packet, Category.REPAIR)
        stats = self.stats
        hold_ns = int((now - t_held) * 1e9)
        if hold_ns > stats.max_hold_ns:
            stats.max_hold_ns = hold_ns
        if st.expected is None or seq_gt(hp.end_seq, st.expected):
            st.expected = hp.end_seq
        out.append(hp)
        self.occupancy -= 1

    def _drain_in_order(
        self, st: _FlowState, out: List[Packet], now: float
    ) -> None:
        """Release held frames made contiguous by an in-sequence arrival."""
        held = st.held
        n = 0
        while held and seq_le(held[0][1].tcp.seq, st.expected):
            self._release_one(st, out, now)
            n += 1
        if not n:
            return
        self.stats.releases_in_order += n
        if not held:
            self._reset_hold(st)
        else:
            # The oldest *arrival* may have been released; the next deadline
            # is the earliest remaining arrival plus the window.  The armed
            # timer matures at the old (earlier) time and simply re-arms.
            st.deadline = min(t for t, _ in held) + self.config.hold_window_s

    def _drain_flow(self, st: _FlowState, out: List[Packet], now: float) -> int:
        """Release every held frame of one flow in sequence order."""
        n = 0
        while st.held:
            self._release_one(st, out, now)
            n += 1
        if n:
            self._reset_hold(st)
        return n

    def _flush_into(self, out: List[Packet], now: float) -> int:
        """Release every held frame of every flow (mode change / reset)."""
        n = 0
        for st in self.flows.values():
            if st.held:
                n += self._drain_flow(st, out, now)
        self.stats.releases_flush += n
        return n

    @staticmethod
    def _reset_hold(st: _FlowState) -> None:
        """``held`` just emptied: invalidate the armed timer and deadline."""
        st.episode += 1
        st.deadline = None
        st.release_pending = False

    def flush(self) -> List[Packet]:
        """Release everything parked (driver reset / teardown path).

        Returns the frames in per-flow sequence order; the caller routes
        them down the normal aggregation path so conservation holds across
        the reset.
        """
        out: List[Packet] = []
        led = self._led
        if led is not None:
            led.push_stage("repair")
        self._flush_into(out, self.cpu.sim.now)
        self.stats.frames_out += len(out)
        if led is not None:
            led.pop_stage()
        return out

    # ------------------------------------------------------------------
    # deadline backstop
    # ------------------------------------------------------------------
    def _deadline_fire(self, key: FlowKey, episode: int) -> None:
        """Timer callback (not on the CPU): decide whether the hold expired."""
        st = self.flows.get(key)
        if st is None or st.episode != episode or not st.held or st.release_pending:
            return
        now = self.cpu.sim.now
        if st.deadline is not None and st.deadline > now + 1e-12:
            # In-order drains released the oldest arrival since arming:
            # re-check when the current oldest actually expires.
            self.cpu.sim.call_at(st.deadline, self._deadline_fire, key, episode)
            return
        st.release_pending = True
        self.stats.deadline_fires += 1
        self.cpu.submit(self._deadline_drain, key, episode)

    def _deadline_drain(self, key: FlowKey, episode: int) -> None:
        """CPU task: release an expired flow's run down the normal path."""
        st = self.flows.get(key)
        if st is None or st.episode != episode or not st.held:
            return
        st.release_pending = False
        cpu = self.cpu
        led = self._led
        if led is not None:
            led.push_stage("repair")
        cpu.consume(cpu.costs.repair_timer, Category.REPAIR)
        now = cpu.sim.now
        out: List[Packet] = []
        n = self._drain_flow(st, out, now)
        stats = self.stats
        stats.releases_deadline += n
        stats.frames_out += n
        tr = self._tr
        if tr is not None:
            tr.event(
                Stage.REPAIR_DEADLINE,
                cpu.now_done,
                tid=cpu_tid(cpu),
                args={"frames": n},
            )
        if led is not None:
            led.pop_stage()
        self.sink(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReorderRepairBuffer({self.name!r}, depth={self.config.depth},"
            f" occupancy={self.occupancy}, flows={len(self.flows)})"
        )
