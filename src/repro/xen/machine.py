"""The Xen receive host: driver domain + hypervisor + guest on one CPU.

Shares :class:`~repro.host.machine.ReceiverBase` with the native machine
and builds the pipeline for the virtualized configuration of the paper
(Linux 2.6.16.38 guest on Xen 3.0.4).  One
physical CPU is shared by all three layers via
:class:`~repro.cpu.view.CpuView`: driver-domain work keeps native category
labels, guest-kernel work is relabelled onto the ``tcp rx``/``tcp tx`` axis
of Figure 6 and inflated by the guest-overhead scale.
"""

from __future__ import annotations

from typing import List, Optional

from repro.buffers.pool import BufferPool
from repro.core.aggregation import AggregationEngine
from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.cpu.view import CpuView
from repro.driver.e1000 import E1000Driver
from repro.faults.degradation import CoalesceGovernor
from repro.host.client import ClientHost
from repro.host.configs import SystemConfig
from repro.host.kernel import Kernel
from repro.host.machine import ReceiverBase
from repro.nic.nic import Nic
from repro.sim.engine import Simulator
from repro.xen.costs import XenCostModel
from repro.xen.driver_domain import DriverDomain
from repro.xen.guest_tx import GuestTxPath

#: Guest-kernel categories -> Figure 6 axis labels.
GUEST_CATEGORY_MAP = {
    Category.RX: Category.TCP_RX,
    Category.TX: Category.TCP_TX,
}


class XenReceiverMachine(ReceiverBase):
    """The virtualized server machine of the paper's evaluation."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        opt: OptimizationConfig,
        ip: Optional[int] = None,
        xen_costs: Optional[XenCostModel] = None,
        name: str = "xen",
    ):
        if not config.is_xen:
            raise ValueError("XenReceiverMachine needs an is_xen SystemConfig")
        if config.mem is not None:
            raise ValueError(
                "the memory hierarchy (SystemConfig.mem) is not modelled for "
                "the Xen pipeline — its grant-copy data path never touches "
                "DDIO ways; use mem=None"
            )
        if config.nic_lro:
            raise ValueError(
                "hardware LRO (SystemConfig.nic_lro) is not modelled for the "
                "Xen pipeline — its NICs are built without an LRO engine"
            )
        if opt.repair is not None:
            raise ValueError(
                "reorder repair (OptimizationConfig.repair) is not modelled "
                "for the Xen pipeline — its drivers have no repair stage"
            )
        super().__init__(sim, config, opt, ip, name)
        self.xen_costs = xen_costs if xen_costs is not None else XenCostModel()

        self.cpu = Cpu(sim, config.cpu_freq_hz, costs=config.costs, locks=config.locks, name=f"{name}-cpu0")
        self.cpus.append(self.cpu)
        #: Driver-domain view: native categories, native costs.
        self.dd_cpu = CpuView(self.cpu, name=f"{name}-dom0")
        #: Guest view: rx/tx land in "tcp rx"/"tcp tx", guest work inflated.
        self.guest_cpu = CpuView(
            self.cpu,
            category_map=dict(GUEST_CATEGORY_MAP),
            scale_map=dict(self.xen_costs.guest_scale),
            name=f"{name}-guest",
        )

        self.dd_pool = BufferPool(name=f"{name}-dom0-skb")
        self.guest_pool = BufferPool(name=f"{name}-guest-skb")
        self.pools.extend((self.dd_pool, self.guest_pool))

        # The guest kernel is the unmodified costed kernel, running on the
        # guest CPU view with its own buffer pool.
        self.kernel = Kernel(sim, self.guest_cpu, config, opt, pool=self.guest_pool, name=f"{name}-guest")
        self.kernel.set_ip(self.ip)

        self.driver_domain = DriverDomain(
            cpu=self.dd_cpu,
            xen_costs=self.xen_costs,
            guest_kernel=self.kernel,
            guest_pool=self.guest_pool,
            name=f"{name}-dom0",
        )
        #: Graceful-degradation governor (aggregation runs in the driver
        #: domain, so its governor lives there too).
        governor: Optional[CoalesceGovernor] = None
        if opt.auto_degrade and opt.receive_aggregation:
            governor = CoalesceGovernor(name=f"{name}-governor")
            self.governors.append(governor)
        if opt.receive_aggregation:
            self.driver_domain.aggregator = AggregationEngine(
                cpu=self.dd_cpu,
                costs=config.costs,
                opt=opt,
                pool=self.dd_pool,
                deliver=self.driver_domain.forward_rx,
                governor=governor,
                name=f"{name}-aggr",
            )
            self.aggregators.append(self.driver_domain.aggregator)

        self.tx_paths: List[GuestTxPath] = []

    # ------------------------------------------------------------------
    def add_client(
        self,
        client: ClientHost,
        drop_prob: float = 0.0,
        reorder_prob: float = 0.0,
        dup_prob: float = 0.0,
        rng=None,
        batch_window_s: float = 0.0,
    ) -> Nic:
        """Attach a client via a dedicated NIC and full-duplex link (same
        signature as :meth:`ReceiverMachine.add_client`)."""
        cfg = self.config
        index = len(self.nics)
        nic = Nic(
            self.sim,
            ring_size=cfg.rx_ring_size,
            itr_interval_s=cfg.itr_interval_s,
            checksum_offload=cfg.checksum_offload,
            mtu=cfg.mtu,
            name=f"{self.name}-eth{index}",
        )
        nic.adaptive_itr = cfg.adaptive_itr
        driver = E1000Driver(
            cpu=self.dd_cpu,
            nic=nic,
            kernel=self.driver_domain,
            pool=self.dd_pool,
            aggregation=self.opt.receive_aggregation,
            name=f"{self.name}-e1000-{index}",
        )
        tx_path = GuestTxPath(
            guest_cpu=self.guest_cpu,
            dd_cpu=self.dd_cpu,
            xen_costs=self.xen_costs,
            physical_driver=driver,
            name=f"{self.name}-tx{index}",
        )
        self._cable(client, nic, drop_prob, reorder_prob, dup_prob, rng, batch_window_s)
        self.kernel.register_route(client.ip, tx_path)
        self.drivers.append(driver)
        self.tx_paths.append(tx_path)
        return nic

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"XenReceiverMachine(opt={self.opt}, nics={len(self.nics)})"
