"""Runtime TCP/simulation sanitizer: protocol invariants checked per event.

Where :mod:`repro.analysis.simlint` enforces contracts *statically*, this
module enforces them *dynamically*: with the sanitizer installed, every
fired simulation event is followed by an audit of the live protocol state —

* simulated time never moves backwards;
* cumulative ACK state is monotonic: ``snd_una`` and ``rcv_nxt`` only
  advance (mod 2**32), and ``snd_una`` never passes ``snd_nxt``;
* congestion control stays in bounds: ``cwnd >= mss`` and
  ``ssthresh >= 2*mss`` at all times (RFC 5681 floors);
* receive aggregation preserves the byte stream: an aggregated sk_buff's
  fragment edges are contiguous and strictly increasing, and the rewritten
  head covers exactly the coalesced bytes (§3.2 of the paper);
* expanded template ACKs carry checksums equivalent to a from-scratch
  computation (RFC 1624 incremental update correctness, §4.2);
* packets are conserved NIC → ring → driver → aggregation → stack: nothing
  is duplicated, nothing silently vanishes (periodic deep audit);
* wire frames are conserved per impaired link (sent + duplicated ==
  delivered + dropped + in-flight), even across loss bursts, dup storms,
  and link flaps;
* a driver watchdog reset neither leaks nor double-counts: ring descriptors
  drained == packets taken by the stack + packets flushed by resets;
* graceful-degradation governors keep enter/exit counters consistent with
  their degraded flag, and aggregation engines account every packet even
  when degraded or allocation-starved;
* the event heap's live-entry accounting matches its contents;
* DDIO I/O-way occupancy is conserved per NUMA node (counter == sum of
  live placements, bounded by capacity, every live entry evictable);
* a kernel in zero-copy receive mode never charges the copy path.

Violations raise :class:`InvariantViolation` immediately, at the event that
broke the contract — not thousands of events later when a throughput number
comes out wrong.

Usage::

    from repro.analysis.sanitizer import install, uninstall
    handle = install()          # every Simulator and receiver machine (any
                                # queue count, or Xen) from now on
    ...                         # run experiments
    uninstall(handle)

or ``python -m repro.cli --sanitize ...``, or ``REPRO_SANITIZE=1 pytest``
(see ``tests/conftest.py``).  The per-event cost is real (~2-4x slowdown);
the sanitizer is a debugging and CI tool, not a default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ack_offload import expand_template
from repro.net.checksum import checksums_equivalent
from repro.sim.engine import Simulator, install_observer, uninstall_observer
from repro.tcp.state import TcpState

_SEQ_MASK = 0xFFFFFFFF
_SEQ_HALF = 0x80000000

#: Deep (structural) audits run every this-many fired events; the per-event
#: checks are cheap, the deep ones walk rings and tables.
DEEP_AUDIT_INTERVAL = 256

#: States in which ``irs``/``rcv_nxt`` are not yet initialised.
_PRE_SYNC_STATES = (TcpState.CLOSED, TcpState.LISTEN, TcpState.SYN_SENT)


class InvariantViolation(AssertionError):
    """A protocol or conservation invariant was broken by the last event."""


@dataclass
class SanitizerStats:
    events_checked: int = 0
    connection_checks: int = 0
    skbs_checked: int = 0
    templates_verified: int = 0
    expanded_acks_verified: int = 0
    deep_audits: int = 0


def _seq_le(a: int, b: int) -> bool:
    return ((b - a) & _SEQ_MASK) < _SEQ_HALF


def _seq_diff(a: int, b: int) -> int:
    return (a - b) & _SEQ_MASK


class SimSanitizer:
    """Invariant checker bound to one :class:`Simulator` instance."""

    def __init__(self, sim: Simulator, deep_every: int = DEEP_AUDIT_INTERVAL):
        self.sim = sim
        self.deep_every = deep_every
        self.stats = SanitizerStats()
        self.machines: List[object] = []
        #: Per connection, the (snd_una, rcv_nxt) it had at its last check.
        self._conn_snaps: Dict[object, Tuple[int, int]] = {}
        self._last_now = sim.now
        sim.push_after_event_hook(self._after_event)

    # ------------------------------------------------------------------
    def detach(self) -> None:
        self.sim.remove_after_event_hook(self._after_event)

    def watch_machine(self, machine) -> None:
        """Audit a ReceiverMachine's kernel, NICs, drivers, and clients.

        NICs/drivers/clients added to the machine later (``add_client``) are
        discovered lazily on each event, so registration order is free.
        """
        if machine not in self.machines:
            self.machines.append(machine)

    # ------------------------------------------------------------------
    # the per-event hook
    # ------------------------------------------------------------------
    def _after_event(self) -> None:
        now = self.sim.now
        if now < self._last_now:
            raise InvariantViolation(
                f"simulated time moved backwards: {self._last_now!r} -> {now!r}"
            )
        self._last_now = now
        self.stats.events_checked += 1
        for machine in self.machines:
            self._check_machine(machine)
        if self.stats.events_checked % self.deep_every == 0:
            self._deep_audit()

    def _check_machine(self, machine) -> None:
        for conn in machine.kernel.connections.values():
            self._check_connection(conn)
        for client in machine.clients:
            for conn in client.connections.values():
                self._check_connection(conn)
        for aggregator in machine.aggregators:
            self._wrap_aggregator(aggregator)
        for driver in machine.drivers:
            self._wrap_driver(driver)

    # ------------------------------------------------------------------
    # connection invariants
    # ------------------------------------------------------------------
    def _check_connection(self, conn) -> None:
        self.stats.connection_checks += 1
        name = getattr(conn, "name", repr(conn))

        snap = self._conn_snaps.get(conn)
        if snap is not None:
            prev_una, prev_nxt = snap
            if not _seq_le(prev_una, conn.snd_una):
                raise InvariantViolation(
                    f"{name}: snd_una regressed {prev_una} -> {conn.snd_una} "
                    "(cumulative ACK must be monotonic)"
                )
            if not _seq_le(prev_nxt, conn.rcv_nxt):
                raise InvariantViolation(
                    f"{name}: rcv_nxt regressed {prev_nxt} -> {conn.rcv_nxt}"
                )
        self._conn_snaps[conn] = (conn.snd_una, conn.rcv_nxt)

        if not _seq_le(conn.snd_una, conn.snd_nxt):
            raise InvariantViolation(
                f"{name}: snd_una={conn.snd_una} ahead of snd_nxt={conn.snd_nxt}"
            )

        reno = conn.reno
        mss = reno.mss
        if reno.cwnd < mss:
            raise InvariantViolation(
                f"{name}: cwnd={reno.cwnd} below one MSS ({mss})"
            )
        if reno.ssthresh < 2 * mss:
            raise InvariantViolation(
                f"{name}: ssthresh={reno.ssthresh} below RFC 5681 floor of "
                f"2*MSS ({2 * mss})"
            )

        # Byte-stream equivalence: everything between irs+1 and rcv_nxt was
        # delivered to the application, except possibly one FIN octet.
        if conn.state not in _PRE_SYNC_STATES:
            span = _seq_diff(conn.rcv_nxt, conn.irs) - 1
            slack = span - conn.stats.bytes_delivered
            if slack not in (0, 1):
                raise InvariantViolation(
                    f"{name}: receive stream accounting broken — rcv_nxt "
                    f"advanced {span} bytes past irs but "
                    f"{conn.stats.bytes_delivered} bytes were delivered "
                    f"(slack={slack}, expected 0 or 1 for a consumed FIN)"
                )

    # ------------------------------------------------------------------
    # aggregation invariants (wrap deliver)
    # ------------------------------------------------------------------
    def _wrap_aggregator(self, aggregator) -> None:
        if getattr(aggregator, "_sanitizer_wrapped", False):
            return
        aggregator._sanitizer_wrapped = True
        aggregator._sanitizer_segs_delivered = 0
        original = aggregator.deliver
        sanitizer = self

        def checked_deliver(skb):
            sanitizer._check_aggregated_skb(aggregator, skb)
            aggregator._sanitizer_segs_delivered += skb.nr_segments
            return original(skb)

        aggregator.deliver = checked_deliver

    def _check_aggregated_skb(self, aggregator, skb) -> None:
        self.stats.skbs_checked += 1
        head = skb.head
        name = aggregator.name
        n = skb.nr_segments
        if not (len(skb.frag_acks) in (0, n) and len(skb.frag_end_seqs) == len(skb.frag_acks)
                and len(skb.frag_windows) == len(skb.frag_acks)):
            raise InvariantViolation(
                f"{name}: fragment metadata arrays inconsistent — "
                f"{n} segments but {len(skb.frag_acks)} acks / "
                f"{len(skb.frag_end_seqs)} end_seqs / {len(skb.frag_windows)} windows"
            )
        if not skb.frags:
            return
        # Fragment edges must be strictly increasing and contiguous with the
        # head: the §3.2 header rewrite claims exactly these bytes.
        prev = skb.frag_end_seqs[0]
        for end in skb.frag_end_seqs[1:]:
            if _seq_diff(end, prev) == 0 or not _seq_le(prev, end):
                raise InvariantViolation(
                    f"{name}: aggregated fragment edges not strictly "
                    f"increasing ({prev} -> {end})"
                )
            prev = end
        covered = _seq_diff(skb.frag_end_seqs[-1], head.tcp.seq)
        if covered != skb.payload_len:
            raise InvariantViolation(
                f"{name}: aggregate holds {skb.payload_len} payload bytes "
                f"but fragment edges span {covered} — byte-stream "
                "equivalence broken (§3.2 rewrite)"
            )
        expected_total = head.ip.header_len + head.tcp.header_len + skb.payload_len
        if head.ip.total_length != expected_total:
            raise InvariantViolation(
                f"{name}: rewritten IP total_length {head.ip.total_length} "
                f"does not cover the aggregate (expected {expected_total})"
            )
        if head.tcp.ack != skb.frag_acks[-1]:
            raise InvariantViolation(
                f"{name}: aggregated head ACK {head.tcp.ack} is not the last "
                f"fragment's ACK {skb.frag_acks[-1]}"
            )

    # ------------------------------------------------------------------
    # ACK-offload invariants (wrap tx_template)
    # ------------------------------------------------------------------
    def _wrap_driver(self, driver) -> None:
        if getattr(driver, "_sanitizer_wrapped", False):
            return
        driver._sanitizer_wrapped = True
        original = driver.tx_template
        sanitizer = self

        def checked_tx_template(skb):
            sanitizer._check_template(driver, skb)
            return original(skb)

        driver.tx_template = checked_tx_template

    def _check_template(self, driver, skb) -> None:
        """Expand the template out-of-band and verify every resulting ACK.

        ``expand_template`` is pure packet surgery (copies only), so running
        it here charges no cycles and mutates no state.
        """
        self.stats.templates_verified += 1
        acks = list(skb.template_acks)
        prev: Optional[int] = None
        for ack, pkt in zip(acks, expand_template(skb)):
            self.stats.expanded_acks_verified += 1
            if pkt.tcp.ack != ack & _SEQ_MASK:
                raise InvariantViolation(
                    f"{driver.name}: expanded ACK carries ack={pkt.tcp.ack}, "
                    f"template said {ack}"
                )
            if prev is not None and not _seq_le(prev, pkt.tcp.ack):
                raise InvariantViolation(
                    f"{driver.name}: template ACK numbers regress "
                    f"({prev} -> {pkt.tcp.ack})"
                )
            prev = pkt.tcp.ack
            expected = pkt.tcp.compute_checksum(
                pkt.ip.src_ip, pkt.ip.dst_ip, pkt.payload or b""
            )
            if not checksums_equivalent(pkt.tcp.checksum, expected):
                raise InvariantViolation(
                    f"{driver.name}: incremental checksum update diverged for "
                    f"ack={pkt.tcp.ack}: header carries "
                    f"0x{pkt.tcp.checksum:04x}, recomputation gives "
                    f"0x{expected:04x} (RFC 1624 violated)"
                )

    # ------------------------------------------------------------------
    # deep structural audits
    # ------------------------------------------------------------------
    def _deep_audit(self) -> None:
        self.stats.deep_audits += 1
        self._audit_heap()
        for machine in self.machines:
            for nic in machine.nics:
                self._audit_ring(nic)
                self._audit_flow_steering(nic)
            for aggregator in machine.aggregators:
                self._audit_aggregator(aggregator)
            for link in machine.links:
                self._audit_link(link)
            for driver in machine.drivers:
                self._audit_driver_conservation(driver)
            for governor in machine.governors:
                self._audit_governor(governor)
            for repair in machine.repairs:
                self._audit_repair(repair)
            mem = getattr(machine, "mem", None)
            if mem is not None:
                self._audit_mem(mem)
            self._audit_zcrx(machine)
            self._audit_ledger(machine)

    def _audit_ledger(self, machine) -> None:
        """The cycle ledger's reconciliation contract holds at every audit
        point, not just at export: per-CPU shadows bit-equal
        ``busy_cycles``, per-(cpu, category) shadows bit-equal the
        profiler, and exact cell units sum to the recorded totals (see
        :meth:`repro.obs.ledger.CycleLedger.verify`)."""
        for cpu in machine.cpus:
            led = getattr(cpu, "_led", None)
            if led is None:
                continue
            problems = led.verify([cpu])
            if problems:
                raise InvariantViolation(
                    f"cycle ledger out of reconciliation on {cpu.name}: "
                    + "; ".join(problems)
                )

    def _audit_link(self, link) -> None:
        """Wire-frame conservation under combined impairments: every frame
        ever sent is delivered, dropped, duplicated-and-accounted, or still
        in flight — nothing aliases, nothing silently vanishes."""
        stats = link.stats
        sent = stats.frames_sent + stats.frames_duplicated
        accounted = stats.frames_delivered + stats.frames_dropped + link.in_flight
        if sent != accounted:
            raise InvariantViolation(
                f"{link.name}: link frame conservation broken — "
                f"{stats.frames_sent} sent + {stats.frames_duplicated} "
                f"duplicated != {stats.frames_delivered} delivered + "
                f"{stats.frames_dropped} dropped + {link.in_flight} in flight"
            )
        if link.in_flight < 0:
            raise InvariantViolation(
                f"{link.name}: in-flight frame count went negative "
                f"({link.in_flight})"
            )

    def _audit_driver_conservation(self, driver) -> None:
        """A watchdog NIC reset must neither leak nor double-count: every
        descriptor ever drained from the driver's ring was either handed to
        the stack (``rx_packets``) or discarded by a reset flush
        (``rx_dropped_reset``)."""
        stats = driver.stats
        drained = driver.queue.ring.drained
        if drained != stats.rx_packets + stats.rx_dropped_reset:
            raise InvariantViolation(
                f"{driver.name}: driver/reset packet conservation broken — "
                f"ring drained {drained} but driver took {stats.rx_packets} "
                f"+ {stats.rx_dropped_reset} dropped by reset "
                f"(resets={stats.resets})"
            )

    def _audit_governor(self, governor) -> None:
        """Degradation transitions are consistent: the mode matches the
        enter/exit counters on both boundaries and the EWMA stays a
        probability."""
        stats = governor.stats
        mode = getattr(governor, "mode", 2 if governor.degraded else 0)
        if mode not in (0, 1, 2):
            raise InvariantViolation(
                f"governor {governor.name}: unknown mode {mode!r}"
            )
        expected = stats.enters - stats.exits
        if (
            expected not in (0, 1)
            or bool(expected) != governor.degraded
            or governor.degraded != (mode == 2)
        ):
            raise InvariantViolation(
                f"governor {governor.name}: transition accounting broken — "
                f"{stats.enters} enters / {stats.exits} exits but "
                f"degraded={governor.degraded} (mode {mode})"
            )
        sort_depth = stats.sort_enters - stats.sort_exits
        if sort_depth not in (0, 1) or bool(sort_depth) != (mode >= 1):
            raise InvariantViolation(
                f"governor {governor.name}: sort-boundary accounting broken "
                f"— {stats.sort_enters} sort enters / {stats.sort_exits} "
                f"sort exits but mode {mode}"
            )
        boundary_crossings = (
            stats.enters + stats.exits + stats.sort_enters + stats.sort_exits
        )
        if not (
            stats.mode_transitions
            <= boundary_crossings
            <= 2 * stats.mode_transitions
        ):
            raise InvariantViolation(
                f"governor {governor.name}: {stats.mode_transitions} mode "
                f"transitions inconsistent with {boundary_crossings} "
                "boundary crossings"
            )
        if not (0.0 <= governor.rate <= 1.0):
            raise InvariantViolation(
                f"governor {governor.name}: disorder-rate EWMA left [0, 1] "
                f"({governor.rate!r})"
            )
        if stats.disorder_events > stats.packets_seen:
            raise InvariantViolation(
                f"governor {governor.name}: {stats.disorder_events} disorder "
                f"events exceed {stats.packets_seen} packets seen"
            )

    def _audit_repair(self, repair) -> None:
        """Repair-buffer conservation: frames neither leak nor duplicate,
        holds stay bounded and sorted, nothing is parked past its deadline.

        Checks, in order (each tamper test in tests/test_sanitizer.py trips
        exactly one):

        1. per-flow occupancy bound (``len(held) <= depth``);
        2. held frames sorted by sequence number;
        3. every held frame is *ahead of* the flow's release point
           (released sequence order stays monotone);
        4. no flow is parked past its deadline (unless its release is
           already pending on the CPU);
        5. global conservation ``frames_in == frames_out + occupancy``.
        """
        from repro.tcp.seqmath import seq_gt, seq_lt

        depth = repair.config.depth
        now = self.sim.now
        total_held = 0
        for key, st in repair.flows.items():
            held = st.held
            total_held += len(held)
            if len(held) > depth:
                raise InvariantViolation(
                    f"repair {repair.name}: flow {key} holds {len(held)} "
                    f"frames, over the configured depth {depth}"
                )
            for i in range(1, len(held)):
                if not seq_lt(held[i - 1][1].tcp.seq, held[i][1].tcp.seq):
                    raise InvariantViolation(
                        f"repair {repair.name}: flow {key} hold buffer out "
                        f"of sequence order at position {i}"
                    )
            if st.expected is not None:
                for _, pkt in held:
                    if not seq_gt(pkt.tcp.seq, st.expected):
                        raise InvariantViolation(
                            f"repair {repair.name}: flow {key} holds seq "
                            f"{pkt.tcp.seq} at or behind the release point "
                            f"{st.expected} — release order would regress"
                        )
            if (
                held
                and not st.release_pending
                and st.deadline is not None
                and now > st.deadline + 1e-9
            ):
                raise InvariantViolation(
                    f"repair {repair.name}: flow {key} parked past its "
                    f"deadline ({st.deadline:.6f} < now {now:.6f}) with no "
                    "release pending"
                )
        stats = repair.stats
        if total_held != repair.occupancy:
            raise InvariantViolation(
                f"repair {repair.name}: occupancy counter {repair.occupancy} "
                f"disagrees with {total_held} frames actually held"
            )
        if stats.frames_in != stats.frames_out + repair.occupancy:
            raise InvariantViolation(
                f"repair {repair.name}: conservation broken — "
                f"{stats.frames_in} frames in != {stats.frames_out} out "
                f"+ {repair.occupancy} held"
            )

    def _audit_heap(self) -> None:
        """Event accounting: every heap slot holds either a live event
        (``_pending``) or a cancelled one not yet skipped or compacted away
        (``_cancelled``), so at all times::

            pending + cancelled == len(heap)

        A cancel or a skip that double-counted or leaked breaks it.
        """
        sim = self.sim
        if sim._pending < 0:
            raise InvariantViolation("event heap pending count went negative")
        if sim._pending + sim._cancelled != len(sim._heap):
            raise InvariantViolation(
                f"event heap accounting broken: pending={sim._pending} "
                f"+ cancelled={sim._cancelled} != heap size {len(sim._heap)}"
            )

    def _audit_ring(self, nic) -> None:
        posted_segments = dropped_segments = open_lro = 0
        for queue in nic.queues:
            ring = queue.ring
            if ring.posted != ring.drained + len(ring):
                raise InvariantViolation(
                    f"{nic.name}.q{queue.index}: ring packet conservation "
                    f"broken — posted={ring.posted}, drained={ring.drained}, "
                    f"in-ring={len(ring)}"
                )
            for pkt in ring._slots:
                self._check_not_slab_free(pkt, f"{nic.name}.q{queue.index} ring")
            posted_segments += ring.posted_segments
            dropped_segments += ring.dropped_segments
            if queue.lro is not None:
                for session in queue.lro.table.values():
                    self._check_not_slab_free(
                        session.packet, f"{nic.name}.q{queue.index} LRO table"
                    )
                open_lro += sum(s.segs for s in queue.lro.table.values())
        # Wire frames are conserved across the whole NIC: every received
        # frame is in exactly one queue's counters or parked in its LRO.
        accounted = posted_segments + dropped_segments + open_lro
        if accounted != nic.stats.rx_frames:
            raise InvariantViolation(
                f"{nic.name}: wire-frame conservation broken — "
                f"{nic.stats.rx_frames} frames received but "
                f"{posted_segments} posted + {dropped_segments} "
                f"dropped + {open_lro} open in LRO = {accounted} "
                f"(summed over {nic.n_queues} queue(s))"
            )

    def _audit_flow_steering(self, nic) -> None:
        """Same-flow-same-queue: a flow observed on queue *i* must still
        steer to queue *i* unless the policy legitimately re-steered it
        (its generation counter advanced) since the observation."""
        steering = getattr(nic, "steering", None)
        if steering is None or not nic.flow_queue_observed:
            return
        for key, (index, generation) in nic.flow_queue_observed.items():
            if steering.generation(key) != generation:
                continue  # re-steered since the last frame; next frame re-records
            expected = steering.peek(key)
            if expected != index:
                raise InvariantViolation(
                    f"{nic.name}: flow {key!r} was DMAed to queue {index} "
                    f"(steering generation {generation}) but the policy now "
                    f"steers it to queue {expected} at the same generation — "
                    "same-flow-same-queue ordering broken"
                )

    @staticmethod
    def _check_not_slab_free(pkt, where: str) -> None:
        """Reuse-after-free guard for packet-slab recycling: a packet still
        resident in a live structure must never sit on the freelist."""
        if getattr(pkt, "_slab_free", False):
            raise InvariantViolation(
                f"{where}: holds a packet that is on the slab freelist "
                f"(reuse-after-free): {pkt!r}"
            )

    def _audit_mem(self, mem) -> None:
        """DDIO-way occupancy conservation per node: the occupancy counter
        must equal the sum of live placement entries, stay within the I/O
        way capacity, and the eviction FIFO must cover every live entry
        (stale FIFO ids are allowed — lazy eviction — but a live entry
        missing from the FIFO could never be evicted)."""
        for node in mem.nodes:
            live = sum(node.entries.values())
            if node.io_occupancy != live:
                raise InvariantViolation(
                    f"mem node {node.index}: DDIO occupancy accounting broken "
                    f"— counter says {node.io_occupancy} lines but live "
                    f"entries sum to {live}"
                )
            if not (0 <= node.io_occupancy <= node.io_capacity_lines):
                raise InvariantViolation(
                    f"mem node {node.index}: DDIO occupancy "
                    f"{node.io_occupancy} outside [0, "
                    f"{node.io_capacity_lines}] I/O-way capacity"
                )
            if len(node.fifo) < len(node.entries):
                raise InvariantViolation(
                    f"mem node {node.index}: eviction FIFO holds "
                    f"{len(node.fifo)} ids but {len(node.entries)} entries "
                    "are live — some placement can never be evicted"
                )

    def _audit_zcrx(self, machine) -> None:
        """A zero-copy kernel must never charge the copy path: the copy
        branch counts every item it prices, so under ``opt.zero_copy`` that
        counter staying zero is exactly the no-copy guarantee."""
        kernel = getattr(machine, "kernel", None)
        if kernel is None:
            return
        opt = getattr(kernel, "opt", None)
        charged = getattr(kernel, "copy_charged_items", None)
        if opt is None or charged is None:
            return
        if getattr(opt, "zero_copy", False) and charged > 0:
            raise InvariantViolation(
                f"{getattr(kernel, 'name', kernel)!r}: zero-copy receive "
                f"charged the copy path for {charged} item(s) — "
                "no-copy-under-zcrx broken"
            )

    def _audit_aggregator(self, aggregator) -> None:
        stats = aggregator.stats
        name = aggregator.name
        if stats.packets_enqueued != stats.packets_in + len(aggregator.queue):
            raise InvariantViolation(
                f"{name}: aggregation queue conservation broken — "
                f"{stats.packets_enqueued} enqueued != {stats.packets_in} "
                f"consumed + {len(aggregator.queue)} queued"
            )
        for pkt in aggregator.queue:
            self._check_not_slab_free(pkt, f"{name} input queue")
        for partial in aggregator.table.values():
            self._check_not_slab_free(partial.skb.head, f"{name} partial aggregate")
            for frag in partial.skb.frags:
                self._check_not_slab_free(frag, f"{name} partial aggregate frag")
        delivered = getattr(aggregator, "_sanitizer_segs_delivered", None)
        if delivered is None:
            return  # deliver was never wrapped (engine idle so far)
        parked = sum(p.count for p in aggregator.table.values())
        dropped = stats.dropped_no_buffer
        if stats.packets_in != delivered + parked + dropped:
            raise InvariantViolation(
                f"{name}: aggregation segment conservation broken — "
                f"{stats.packets_in} packets in != {delivered} delivered + "
                f"{parked} parked in partial aggregates + "
                f"{dropped} dropped on pool exhaustion"
            )


# ----------------------------------------------------------------------
# process-wide installation
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _InstallHandle:
    """The installed sanitizer: an observer factory giving every new
    Simulator a :class:`SimSanitizer`, collected in ``sanitizers``."""

    deep_every: int
    sanitizers: List[SimSanitizer] = field(default_factory=list)

    def __call__(self, sim: Simulator) -> SimSanitizer:
        sanitizer = SimSanitizer(sim, deep_every=self.deep_every)
        self.sanitizers.append(sanitizer)
        return sanitizer


_active_handle: Optional[_InstallHandle] = None


def install(deep_every: int = DEEP_AUDIT_INTERVAL) -> _InstallHandle:
    """Sanitize every Simulator and receiver machine created from now on.

    Idempotent: a second call returns the already-active handle.
    """
    global _active_handle
    if _active_handle is None:
        _active_handle = _InstallHandle(deep_every)
        install_observer(_active_handle)
    return _active_handle


def uninstall(handle: Optional[_InstallHandle] = None) -> None:
    """Undo :func:`install`.  Already-created simulators stay sanitized."""
    global _active_handle
    if handle is None:
        handle = _active_handle
    if handle is None:
        return
    uninstall_observer(handle)
    if handle is _active_handle:
        _active_handle = None


def is_installed() -> bool:
    return _active_handle is not None
