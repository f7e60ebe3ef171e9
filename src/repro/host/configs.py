"""Calibrated system configurations.

These are the three systems of the paper's evaluation:

* ``linux_up_config``  — native Linux 2.6.16.34, uniprocessor 3.0 GHz Xeon.
* ``linux_smp_config`` — the same kernel in SMP mode on a dual-core Xeon.
  Receive softirq processing is concentrated on one core (the 2.6.16 default
  without irqbalance — the only reading under which the paper's SMP baseline
  of 2988 Mb/s, *below* the UP baseline, is consistent with Figure 4's
  modest per-category inflation), with lock-prefixed-instruction costs
  applied per §2.3.
* ``xen_config``       — Linux 2.6.16.38 guest on Xen 3.0.4; the receive
  pipeline crosses the driver domain (bridge, netback), the hypervisor
  (I/O channel copy, event channels), and the guest (netfront, TCP).

Calibration targets and their provenance are noted inline; see DESIGN.md §2
for the method.  Only constants are calibrated — all control flow (how often
each constant is charged) is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.cache import CacheModel, PrefetchMode
from repro.cpu.costmodel import CostModel
from repro.cpu.locks import LockModel
from repro.core.config import OptimizationConfig  # noqa: F401  (re-exported)
from repro.mem.hierarchy import MemConfig


@dataclass
class SystemConfig:
    """Full description of a receive host under test."""

    name: str
    cpu_freq_hz: float = 3.0e9
    smp: bool = False
    is_xen: bool = False
    costs: CostModel = field(default_factory=CostModel)
    locks: LockModel = field(default_factory=LockModel)
    # ---- NIC parameters (paper: five Intel Pro1000 GbE cards) ----
    n_nics: int = 5
    nic_rate_bps: float = 1e9
    rx_ring_size: int = 256
    #: Interrupt-moderation interval: at GbE line rate (~81 kpps) a 250 µs
    #: throttle yields ~20-packet batches, matching the paper's observation
    #: that aggregation beyond ~20 stops helping (Figure 11).
    itr_interval_s: float = 250e-6
    #: e1000 AIM: moderate bulk traffic, interrupt immediately for sparse
    #: (latency-sensitive) traffic.  Disable to study fixed moderation.
    adaptive_itr: bool = True
    #: The e1000 supports receive checksum offload; §3.1 requires it for
    #: aggregation (we never aggregate without it).
    checksum_offload: bool = True
    #: TCP Segmentation Offload on transmit (the transmit-side analogue the
    #: paper cites in §1): the stack hands the driver sends of up to
    #: ``tso_gso_segments`` MSS; the driver/NIC splits them at wire MTU.
    tso: bool = False
    tso_gso_segments: int = 44  # ~64 KiB at a 1448-byte MSS
    #: Hardware LRO in the NIC (the related-work comparator, paper §6).
    #: Mutually sensible with the baseline stack only: the NIC coalesces
    #: before DMA, the host sees large plain segments.
    nic_lro: bool = False
    lro_limit: int = 20
    mtu: int = 1500
    #: One-way LAN propagation delay to the client machines.
    link_delay_s: float = 20e-6
    #: TCP MSS implied by the MTU with timestamps (1500 - 40 - 12).
    mss: int = 1448
    #: Explicit memory hierarchy (LLC/DDIO/NUMA — :mod:`repro.mem`).
    #: ``None`` is the flat-equivalent setting: every charge goes through
    #: the flat :class:`~repro.cpu.cache.CacheModel`, byte-identical to the
    #: pre-hierarchy code, which is what all pinned figures run under.
    mem: Optional[MemConfig] = None


def _native_costs(prefetch: PrefetchMode = PrefetchMode.FULL) -> CostModel:
    """CostModel defaults are already calibrated for native Linux (Fig 3)."""
    return CostModel(cache=CacheModel(), prefetch=prefetch)


def linux_up_config(prefetch: PrefetchMode = PrefetchMode.FULL) -> SystemConfig:
    """Native Linux, uniprocessor (Figures 3, 7, 8, 11 and Table 1).

    Calibration target: baseline saturation at ≈ 3452 Mb/s, i.e. ≈ 10,400
    cycles/packet at 3.0 GHz, with Figure 3's category shares.
    """
    return SystemConfig(
        name="Linux UP",
        cpu_freq_hz=3.0e9,
        smp=False,
        costs=_native_costs(prefetch),
        locks=LockModel(enabled=False),
    )


def linux_smp_config(prefetch: PrefetchMode = PrefetchMode.FULL) -> SystemConfig:
    """Native Linux, SMP (Figures 4, 7, 9, 12 and Table 1).

    Calibration target: baseline ≈ 2988 Mb/s with rx +62% / tx +40% over UP
    (paper §2.3), via the lock model.
    """
    return SystemConfig(
        name="Linux SMP",
        cpu_freq_hz=3.0e9,
        smp=True,
        costs=_native_costs(prefetch),
        locks=LockModel(enabled=True),
    )


def xen_config(prefetch: PrefetchMode = PrefetchMode.FULL) -> SystemConfig:
    """Linux guest on Xen (Figures 6, 7, 10 and Table 1).

    Calibration target: baseline saturation at ≈ 1088 Mb/s (≈ 33,000
    cycles/packet) with §2.4's category shares: virtualization-stack
    per-packet ≈ 46%, TCP ≈ 10%, per-byte ≈ 14% (two copies).

    The Xen pipeline's own constants live in
    :class:`repro.xen.costs.XenCostModel`; this config still carries the
    native CostModel for the TCP/buffer/driver constants shared with it.
    """
    return SystemConfig(
        name="Xen",
        cpu_freq_hz=3.0e9,
        smp=False,
        is_xen=True,
        costs=_native_costs(prefetch),
        locks=LockModel(enabled=False),
    )
