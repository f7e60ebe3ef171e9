"""The Xen driver domain: bridge, netback, and the I/O channel to the guest.

Plays the role the native kernel's softirq plays for the e1000 driver — the
driver hands it received packets (raw, when aggregation is enabled) — and
forwards host packets through bridge → netback → grant copy → netfront into
the guest kernel.

Receive Aggregation, when enabled, runs *here*, before the bridge: that is
what makes the bridge/netfilter (``non-proto``) overhead shrink by the
aggregation factor in Figure 10, and it is the natural "entry point of the
network stack" (§3.5) in the Xen architecture of Figure 5.
"""

from __future__ import annotations

from typing import List

from repro.buffers.pool import BufferPool
from repro.buffers.skbuff import SkBuff
from repro.cpu.categories import Category
from repro.cpu.view import CpuView
from repro.xen.costs import XenCostModel


class DriverDomain:
    """Bridge + netback + I/O channel stage of the Xen pipeline."""

    def __init__(
        self,
        cpu: CpuView,
        xen_costs: XenCostModel,
        guest_kernel,
        guest_pool: BufferPool,
        name: str = "dom0",
    ):
        self.cpu = cpu
        self.xen_costs = xen_costs
        self.guest_kernel = guest_kernel
        self.guest_pool = guest_pool
        self.name = name
        self.aggregator = None  # set by the Xen machine when aggregation is on
        self._batch: List[SkBuff] = []
        self.packets_forwarded = 0
        self.batches_flushed = 0

    # ------------------------------------------------------------------
    # interface the e1000 driver expects of its "kernel"
    # ------------------------------------------------------------------
    def softirq_baseline(self, skbs: List[SkBuff]) -> None:
        self.cpu.consume(self.cpu.costs.softirq_dispatch, Category.MISC)
        for skb in skbs:
            self.forward_rx(skb)
        self.flush_to_guest()

    def softirq_aggregated(self) -> None:
        self.cpu.consume(self.cpu.costs.softirq_dispatch, Category.MISC)
        self.aggregator.run()
        self.flush_to_guest()

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def forward_rx(self, skb: SkBuff) -> None:
        """Bridge + netback one host packet, then queue it on the I/O channel."""
        xc = self.xen_costs
        consume = self.cpu.consume
        consume(xc.bridge_rx_per_packet, Category.NON_PROTO)
        consume(xc.netback_rx_base + xc.netback_per_frag * skb.nr_segments, Category.NETBACK)
        self._batch.append(skb)
        self.packets_forwarded += 1

    def flush_to_guest(self) -> None:
        """Grant-copy the batched packets into the guest and process them."""
        if not self._batch:
            return
        xc = self.xen_costs
        consume = self.cpu.consume
        batch, self._batch = self._batch, []
        self.batches_flushed += 1
        # One event-channel notification and domain switch per batch.
        consume(xc.xen_event_per_batch + xc.xen_domain_switch_per_batch, Category.XEN)
        for skb in batch:
            consume(
                xc.xen_grant_per_packet + xc.xen_grant_per_frag * skb.nr_segments,
                Category.XEN,
            )
            # Copy #1: driver domain -> guest, through the grant-copy path.
            consume(
                self.cpu.costs.copy_cycles(skb.payload_len) * xc.grant_copy_multiplier,
                Category.PER_BYTE,
            )
            consume(
                xc.netfront_rx_base + xc.netfront_per_frag * skb.nr_segments,
                Category.NETFRONT,
            )
            guest_skb = self._reparent_to_guest(skb)
            self.guest_kernel.deliver_host_skb(guest_skb)
        self.guest_kernel.app_drain()

    def _reparent_to_guest(self, skb: SkBuff) -> SkBuff:
        """Free the driver-domain sk_buff and allocate the guest's."""
        guest_skb = self.guest_pool.alloc(skb.head, now=self.cpu.sim.now)
        guest_skb.adopt_chain(skb)
        guest_skb.csum_verified = skb.csum_verified
        skb.free()
        # Driver-domain sk_buff free, guest sk_buff alloc.
        self.cpu.consume(self.cpu.costs.skb_free, Category.BUFFER)
        self.guest_kernel.cpu.consume(self.guest_kernel.cpu.costs.skb_alloc, Category.BUFFER)
        return guest_skb
