"""e1000-style NIC driver.

Baseline receive path (per network packet, all in the ``driver`` category
except where noted): ISR entry, descriptor/DMA handling, MAC header
processing (``eth_type_trans`` — a compulsory cache miss on the cold
header), sk_buff allocation (``buffer``), then hand-off to the softirq.

Optimized receive path (§3.5): the driver performs *no* MAC processing and
allocates *no* sk_buff — raw packets go straight into the per-CPU
aggregation queue, and the compulsory header miss moves into the
aggregation routine.  Paper §5.1 measures this as 681 cycles/packet leaving
the driver.

Transmit path: per-packet descriptor work; for a *template ACK* (§4.2) the
driver expands the template into real ACK packets — copy, rewrite ACK
number, fix the TCP checksum incrementally — at ~150 cycles per ACK instead
of a full stack traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buffers.pool import BufferPool
from repro.buffers.skbuff import SkBuff
from repro.core.ack_offload import expand_template
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.net.packet import Packet
from repro.nic.nic import Nic
from repro.obs.runtime import active_ledger, active_tracer
from repro.obs.trace import Stage, cpu_tid


@dataclass
class DriverStats:
    isr_runs: int = 0
    rx_packets: int = 0
    tx_packets: int = 0
    tx_templates: int = 0
    tx_expanded_acks: int = 0
    #: Drained packets discarded because hardware checksum validation
    #: flagged them (corrupted in flight).
    rx_csum_discards: int = 0
    #: Drained packets discarded because the sk_buff pool was exhausted.
    rx_dropped_no_buffer: int = 0
    #: Ring packets discarded by a watchdog NIC reset (host packets).
    rx_dropped_reset: int = 0
    #: Watchdog activity.
    watchdog_ticks: int = 0
    resets: int = 0


class E1000Driver:
    """One driver instance bound to one NIC queue, processing on one CPU.

    Single-queue NICs (the default) have exactly one driver instance bound
    to queue 0; a multi-queue NIC has one instance per queue, each bound to
    the CPU that queue's MSI-X vector targets (see :mod:`repro.mq`).
    """

    def __init__(
        self,
        cpu: Cpu,
        nic: Nic,
        kernel,
        pool: BufferPool,
        aggregation: bool = False,
        tso: bool = False,
        mss: int = 1448,
        queue_index: int = 0,
        repair=None,
        name: str = "e1000-0",
    ):
        self.cpu = cpu
        self.nic = nic
        self.queue = nic.queues[queue_index]
        self.kernel = kernel
        self.pool = pool
        self.aggregation = aggregation and nic.checksum_offload
        #: Optional :class:`~repro.faults.repair.ReorderRepairBuffer` staged
        #: between ring drain and the aggregation queue.  ``None`` (the
        #: default) keeps the drain path byte-identical to the pre-repair
        #: build; only meaningful with ``aggregation``.
        self.repair = repair if self.aggregation else None
        self.tso = tso
        self.mss = mss
        self.name = name
        self.stats = DriverStats()
        self._tr = active_tracer()
        #: Cycle ledger captured at construction, same idiom as _tr.
        self._led = active_ledger()
        #: Race checker seam (None unless --racecheck), same idiom as _tr.
        self._rc = None
        #: The CPU index this queue's MSI-X vector targets: its ring is
        #: owned by that CPU (drains from anywhere else are cross-CPU).
        self.queue.owner_cpu = queue_index
        # Watchdog state (opt-in: start_watchdog()).  Disarmed, the driver
        # schedules zero extra events and the clean path is bit-identical.
        self._watchdog_armed = False
        self._watchdog_interval_s = 2e-3
        self._watchdog_last_drained = -1
        self._watchdog_stall_ticks = 0
        self._reset_pending = False
        nic.bind_driver(self, queue_index)

    # ------------------------------------------------------------------
    # receive
    # ------------------------------------------------------------------
    def on_interrupt(self, nic: Nic) -> None:
        """Hardware interrupt: queue the ISR as a CPU task."""
        self.cpu.submit(self._isr)

    def _isr(self) -> None:
        costs = self.cpu.costs
        consume = self.cpu.consume
        self.stats.isr_runs += 1
        tr = self._tr
        if tr is not None:
            isr_start = max(self.cpu.busy_until, self.cpu.sim.now)
        led = self._led
        if led is not None:
            led.push_stage("driver.isr")
        consume(costs.driver_irq, Category.DRIVER)
        rc = self._rc
        if rc is not None:
            rc.note_ring_access(self.queue, self.cpu)
            rc.note_port_access(self.kernel, rc.cpu_index_of(self.cpu))
        pkts = self.queue.ring.drain()
        self.queue.last_drain_count = len(pkts)
        if not pkts:
            if led is not None:
                led.pop_stage()
            self.queue.poll()
            return
        self.stats.rx_packets += len(pkts)
        prof = self.cpu.profiler
        rx_cost = costs.driver_rx_per_packet
        misc_cost = costs.misc_per_network_packet
        driver_cat = Category.DRIVER
        misc_cat = Category.MISC
        for pkt in pkts:
            # Descriptor/DMA handling and timer bookkeeping are per wire
            # frame even under hardware LRO (the NIC burns one descriptor
            # per frame); lro_segs is 1 everywhere else.
            segs = pkt.lro_segs
            prof.network_packets += segs
            consume(rx_cost * segs, driver_cat)
            consume(misc_cost * segs, misc_cat)
        if self.nic.stats.rx_csum_errors:
            # Hardware flagged at least one frame this run: discard the
            # descriptors whose checksum validation failed.  (Zero on a
            # clean wire, so the filter never runs there.)
            kept = []
            for pkt in pkts:
                if pkt.corrupted and self.nic.checksum_offload:
                    self.stats.rx_csum_discards += 1
                else:
                    kept.append(pkt)
            pkts = kept
        if self.aggregation:
            # §3.5: raw hand-off — no sk_buff, no MAC processing here.
            repair = self.repair
            if repair is not None:
                # Sort-and-coalesce: out-of-order frames may be parked and
                # released later (in sequence order) by the repair stage.
                pkts = repair.process(pkts, self.cpu.sim.now)
            self.kernel.aggregator.enqueue(pkts)
            self.kernel.softirq_aggregated()
        else:
            skbs = []
            for pkt in pkts:
                consume(costs.mac_rx_processing, Category.DRIVER)
                skb = self.pool.alloc(pkt, now=self.cpu.sim.now)
                if skb is None:
                    # Pool exhausted (memory-pressure fault window): the
                    # packet is dropped here, exactly as a failed
                    # netdev_alloc_skb drops on real hardware.  TCP
                    # retransmission recovers the bytes.
                    self.stats.rx_dropped_no_buffer += 1
                    continue
                consume(costs.skb_alloc, Category.BUFFER)
                skbs.append(skb)
            self.kernel.softirq_baseline(skbs)
        if led is not None:
            led.pop_stage()
        if tr is not None:
            # The span covers the whole ISR task, softirq included; the
            # softirq emits its own nested span on the same thread.
            tr.event(
                Stage.DRIVER_ISR,
                isr_start,
                max(0.0, self.cpu.busy_until - isr_start),
                tid=cpu_tid(self.cpu),
                args={"pkts": len(pkts)},
            )
        # Packets that arrived while we were processing get a fresh
        # (moderated) interrupt.
        self.queue.poll()

    # ------------------------------------------------------------------
    # watchdog + reset (fault recovery)
    # ------------------------------------------------------------------
    def start_watchdog(self, interval_s: float = 2e-3) -> None:
        """Arm the stall watchdog (like e1000's 2-second watchdog task,
        scaled to simulation timescales).

        Every ``interval_s`` the watchdog checks whether the queue's ring
        holds packets that are not being drained; two consecutive stalled
        observations with no interrupt pending trigger :meth:`reset`.
        Disarmed (the default) the driver schedules no events at all, so
        clean-path runs are bit-identical with the subsystem present.
        """
        if self._watchdog_armed:
            return
        self._watchdog_armed = True
        self._watchdog_interval_s = interval_s
        self._watchdog_last_drained = self.queue.ring.drained
        self._watchdog_stall_ticks = 0
        self._reset_pending = False
        self.cpu.sim.schedule(interval_s, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        self.stats.watchdog_ticks += 1
        queue = self.queue
        ring = queue.ring
        stalled = (
            len(ring) > 0
            and ring.drained == self._watchdog_last_drained
            and not queue._irq_pending
        )
        self._watchdog_stall_ticks = self._watchdog_stall_ticks + 1 if stalled else 0
        self._watchdog_last_drained = ring.drained
        if self._watchdog_stall_ticks >= 2 and not self._reset_pending:
            self._reset_pending = True
            self._watchdog_stall_ticks = 0
            self.cpu.submit(self.reset)
        self.cpu.sim.schedule(self._watchdog_interval_s, self._watchdog_tick)

    def reset(self) -> None:
        """Recover a hung NIC: drain and discard the stale ring, close
        hardware LRO sessions, flush aggregation partials, and re-enable
        interrupts.

        Packet conservation holds across the reset: LRO sessions are closed
        *through the ring* (so the NIC's wire-frame accounting balances) and
        every drained-but-discarded packet is counted in
        ``rx_dropped_reset`` (so ring ``posted == drained + in-ring`` and
        ``drained == rx_packets + rx_dropped_reset`` both still audit).
        TCP retransmission recovers the discarded bytes.
        """
        self._reset_pending = False
        self.stats.resets += 1
        consume = self.cpu.consume
        led = self._led
        if led is not None:
            led.push_stage("driver.reset")
        consume(self.cpu.costs.driver_reset, Category.DRIVER)
        queue = self.queue
        ring = queue.ring
        nic = self.nic
        if queue.lro is not None:
            for out in queue.lro.flush():
                if ring.post(out):
                    if queue.mem is not None:
                        queue.mem.dma_place(out, queue.mem_node)
                else:
                    nic.stats.rx_dropped_ring_full += 1
        if self._rc is not None:
            self._rc.note_ring_access(queue, self.cpu)
        stale = ring.drain()
        self.stats.rx_dropped_reset += len(stale)
        if self.aggregation:
            # Nothing may stay parked across a reset: release every held
            # repair frame and deliver every partial aggregate through the
            # normal (work-conserving) flush path.
            if self.repair is not None:
                flushed = self.repair.flush()
                if flushed:
                    self.kernel.aggregator.enqueue(flushed)
            self.kernel.softirq_aggregated()
        nic.hung = False
        queue._irq_pending = False
        if led is not None:
            led.pop_stage()
        tr = self._tr
        if tr is not None:
            tr.event(
                Stage.DRIVER_RESET,
                max(self.cpu.busy_until, self.cpu.sim.now),
                tid=cpu_tid(self.cpu),
                args={"discarded": len(stale)},
            )
        # Anything DMAed after the drain gets a fresh interrupt.
        queue.poll()

    # ------------------------------------------------------------------
    # transmit
    # ------------------------------------------------------------------
    def tx(self, pkt: Packet, pure_ack: bool = False) -> None:
        """Transmit one packet; it reaches the wire when the CPU work done
        so far completes.  Large sends (payload > MSS) are TSO-split into
        wire-sized segments here."""
        led = self._led
        if led is not None:
            led.push_stage("driver.tx")
        self.cpu.consume(self.cpu.costs.driver_tx_per_packet, Category.DRIVER)
        if pkt.payload_len > self.mss:
            if not self.tso:
                raise RuntimeError(f"{self.name}: oversized segment without TSO")
            for seg in self._tso_split(pkt):
                self.cpu.consume(self.cpu.costs.tso_split_per_segment, Category.DRIVER)
                self.stats.tx_packets += 1
                self.cpu.defer(self.nic.transmit, seg)
            if led is not None:
                led.pop_stage()
            return
        self.stats.tx_packets += 1
        if pure_ack:
            self.cpu.profiler.acks_sent += 1
        self.cpu.defer(self.nic.transmit, pkt)
        if led is not None:
            led.pop_stage()

    def _tso_split(self, pkt: Packet):
        """Split one large send into MSS-sized wire segments."""
        segments = []
        offset = 0
        while offset < pkt.payload_len:
            length = min(self.mss, pkt.payload_len - offset)
            segments.append(pkt.tso_slice(offset, length))
            offset += length
        return segments

    def tx_template(self, skb: SkBuff) -> None:
        """Expand a template ACK (§4.2) and transmit the real ACK packets."""
        costs = self.cpu.costs
        consume = self.cpu.consume
        led = self._led
        if led is not None:
            led.push_stage("driver.tx")
        consume(costs.driver_tx_per_packet, Category.DRIVER)
        self.stats.tx_templates += 1
        # Clones come from the pool's packet slab: the clients release every
        # ACK into it, so the ACK population stays bounded by what is in flight.
        packets = expand_template(skb, self.pool.slab)
        tr = self._tr
        if tr is not None:
            tr.event(
                Stage.ACK_EXPAND,
                max(self.cpu.busy_until, self.cpu.sim.now),
                tid=cpu_tid(self.cpu),
                args={"acks": len(packets)},
            )
        prof = self.cpu.profiler
        for pkt in packets:
            consume(costs.ack_expand_per_ack, Category.DRIVER)
            self.stats.tx_expanded_acks += 1
            self.stats.tx_packets += 1
            prof.acks_sent += 1
            self.cpu.defer(self.nic.transmit, pkt)
        skb.free()
        consume(costs.skb_free, Category.BUFFER)
        if led is not None:
            led.pop_stage()
