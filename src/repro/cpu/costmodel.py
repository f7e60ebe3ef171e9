"""Cycle costs of the simulated kernel routines.

All constants are in CPU cycles on the paper's 3.0 GHz Xeon and are
calibrated (see ``repro/host/configs.py`` and DESIGN.md §2) so that the
*baseline* uniprocessor breakdown reproduces Figure 3's category shares:
per-byte ≈ 17%, rx+tx ≈ 21%, buffer+non-proto ≈ 25%, driver ≈ 21%,
misc ≈ 16%, for a total of ≈ 10,400 cycles per 1500-byte packet (which is
what pins the baseline at ≈ 3.45 Gb/s of CPU capacity).

Only the *constants* are calibrated.  Which constants get charged how many
times — per network packet, per host packet, per fragment, per ACK, per
interrupt, per syscall — is decided by the simulated stack's control flow,
so every reduction factor and crossover in the evaluation is emergent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.cache import CacheModel, PrefetchMode


@dataclass
class CostModel:
    """Cycle constants for the native-Linux receive path.

    The Xen pipeline has its own additional constants in
    :class:`repro.xen.costs.XenCostModel`.
    """

    cache: CacheModel = field(default_factory=CacheModel)
    prefetch: PrefetchMode = PrefetchMode.FULL
    #: ``cache.sequential_miss_cycles[prefetch]``, resolved at construction:
    #: indexing by the enum member on every copy runs ``Enum.__hash__`` in
    #: Python.  Change ``cache`` or ``prefetch`` with ``dataclasses.replace``.
    line_miss_cycles: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.line_miss_cycles = self.cache.sequential_miss_cycles[self.prefetch]

    # ---------------- driver (category: driver) ----------------
    #: Per received network packet: descriptor handling, DMA unmap, ring refill.
    driver_rx_per_packet: float = 1200.0
    #: Per interrupt: ISR entry/exit, IRQ ack on the NIC.
    driver_irq: float = 600.0
    #: ``eth_type_trans``-style MAC header inspection on a cold header —
    #: dominated by a compulsory cache miss (paper §5.1 measures 681
    #: cycles/packet recovered when this moves out of the driver).
    mac_rx_processing: float = 681.0
    #: Per transmitted packet: descriptor setup, doorbell.
    driver_tx_per_packet: float = 500.0
    #: ACK-offload expansion at the driver: copy a ~64-byte template, rewrite
    #: the ACK number, incrementally fix the checksum (§4.2).
    ack_expand_per_ack: float = 150.0
    #: TSO: splitting one wire segment out of a large send at the driver/NIC
    #: boundary (header replication, descriptor per segment).
    tso_split_per_segment: float = 150.0
    #: Watchdog NIC reset: disable interrupts, reinitialize the descriptor
    #: ring, reprogram the device (fault-recovery path only; never charged
    #: on a clean run).
    driver_reset: float = 25_000.0

    # ---------------- buffer management (category: buffer) ----------------
    #: sk_buff slab allocation (paper §2.2: sk_buff memory management is the
    #: bulk of the buffer overhead).
    skb_alloc: float = 500.0
    skb_free: float = 400.0
    #: Releasing one chained fragment's data buffer when an aggregated
    #: sk_buff is freed (the per-network-packet part of buffer management
    #: that aggregation cannot eliminate).
    frag_buffer_release: float = 180.0

    # ---------------- receive protocol processing (category: rx) ----------------
    #: IP layer receive processing per host packet.
    ip_rx: float = 250.0
    #: TCP layer receive processing per host packet.
    tcp_rx: float = 900.0
    #: Modified-TCP extra work per aggregated fragment: walking the stored
    #: per-fragment ACK numbers for congestion-window and delayed-ACK
    #: accounting (§3.4).
    tcp_rx_per_fragment: float = 120.0

    # ---------------- transmit protocol processing (category: tx) ----------------
    #: TCP layer cost of building one ACK (or one template ACK).
    tcp_tx_ack: float = 1800.0
    #: TCP layer cost of building one data/control segment (handshake
    #: replies, request/response payloads).
    tcp_tx_data: float = 2000.0
    #: IP layer transmit processing per packet handed down.
    ip_tx: float = 280.0
    #: Extra cost of attaching the ACK-number list to a template ACK, per
    #: represented ACK (§4.2).
    template_ack_per_entry: float = 40.0

    # ---------------- non-protocol stack plumbing (category: non-proto) -------
    #: netif_receive_skb, netfilter hooks, softirq packet movement — per host
    #: packet on the receive side.
    non_proto_rx: float = 900.0
    #: qdisc/dev_queue_xmit path per transmitted packet.
    non_proto_tx: float = 700.0

    # ---------------- aggregation (category: aggr) ----------------
    #: Early demultiplex of one network packet: the compulsory header miss
    #: plus hash/match work (paper: 789 cycles/packet total, ~681 of it the
    #: miss).  The miss component is ``mac_rx_processing`` moved here.
    aggr_match_per_packet: float = 110.0
    #: Building/finalizing one aggregated host packet: sk_buff fixups, header
    #: rewrite, IP checksum over the 20-byte header.
    aggr_finalize_per_host_packet: float = 250.0
    #: Chaining one fragment onto a partial aggregate.
    aggr_chain_per_fragment: float = 45.0
    #: Handing over an aggregate that ended up with a single fragment
    #: (no header rewrite or checksum needed).
    aggr_deliver_single: float = 50.0

    # ---------------- reorder repair (category: repair) ----------------
    #: Sort-and-coalesce stage (Wu et al.; ``OptimizationConfig.repair``).
    #: Per data frame probed against the flow's expected sequence number
    #: while the stage is sorting: flow lookup + one masked compare.
    repair_probe_per_packet: float = 40.0
    #: Sorted insertion of one out-of-order frame into the per-flow hold
    #: buffer (position scan + list insert; the buffer is <= ``depth``
    #: entries, cache-resident).
    repair_insert_per_packet: float = 90.0
    #: Releasing one parked frame back into the receive path (unlink +
    #: hand-off to the aggregation queue).
    repair_release_per_packet: float = 30.0
    #: Deadline-timer fire servicing one flow's expired hold (timer
    #: bookkeeping; the released frames pay the per-frame release cost).
    repair_timer: float = 120.0

    # ---------------- per-byte (category: per-byte) ----------------
    #: Per-fragment setup during copy_to_user of an aggregated skb (iovec walk).
    copy_setup_per_fragment: float = 120.0
    #: Zero-copy receive (page remap, see :mod:`repro.mem.zerocopy`):
    #: per-host-packet setup (reference the skb, enter the mapping path).
    zc_setup_per_skb: float = 400.0
    #: Per mapped page: get_page, PTE install, and the amortized share of
    #: the range's TLB shoot-down.  This is the fixed cost that must beat
    #: per-byte copying for zero-copy to win.
    zc_map_per_page: float = 5400.0
    #: Minor-fault-like touch when the mapped page's payload already left
    #: the LLC (DDIO warmth lost before the app read it).
    zc_cold_fault_per_page: float = 1200.0
    #: Page size the remap path operates on.
    zc_page_bytes: int = 4096

    # ---------------- misc (category: misc) ----------------
    #: Socket/timer/softirq bookkeeping charged per network packet.
    misc_per_network_packet: float = 800.0
    #: Socket-level work per host packet enqueued to a socket.
    misc_per_host_packet: float = 400.0
    #: One recv() syscall (entry/exit, fd lookup).
    syscall: float = 2500.0
    #: Waking the receiving process and scheduling it.
    wakeup: float = 2200.0
    #: softirq dispatch per batch.
    softirq_dispatch: float = 400.0

    # ------------------------------------------------------------------
    # derived per-byte costs
    # ------------------------------------------------------------------
    def copy_cycles(self, nbytes: int) -> float:
        """Cycles to copy ``nbytes`` of cold packet data to user space:
        ``cache.sequential_copy_cycles(nbytes, prefetch)``, term for term."""
        cache = self.cache
        return cache.lines(nbytes) * self.line_miss_cycles + nbytes * cache.copy_cycles_per_byte

    def checksum_cycles(self, nbytes: int) -> float:
        """Cycles to software-verify a TCP checksum over ``nbytes``:
        ``cache.sequential_checksum_cycles(nbytes, prefetch)``, term for
        term."""
        cache = self.cache
        return cache.lines(nbytes) * self.line_miss_cycles + nbytes * cache.checksum_cycles_per_byte
