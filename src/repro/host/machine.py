"""The native-Linux receive host under test.

Assembles CPU + NICs + drivers + kernel per a
:class:`~repro.host.configs.SystemConfig` and an
:class:`~repro.host.configs.OptimizationConfig`, and wires client machines
to its NICs (one full-duplex GbE link pair per client, like the paper's five
Pro/1000 cards each cabled to one sender machine).

SMP note: the SMP configuration inflates per-packet costs via the lock model
but still processes all receive work on one core (see configs.py for why);
the machine therefore always has exactly one costed CPU.
"""

from __future__ import annotations

from typing import List, Optional

from repro.buffers.pool import BufferPool
from repro.buffers.slab import PacketSlab
from repro.core.aggregation import AggregationEngine
from repro.cpu.cpu import Cpu
from repro.faults.degradation import CoalesceGovernor
from repro.faults.repair import ReorderRepairBuffer
from repro.driver.e1000 import E1000Driver
from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.host.kernel import Kernel
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.topology import NumaTopology
from repro.net.addresses import ip_from_str
from repro.nic.lro import LroEngine
from repro.nic.nic import Nic
from repro.sim.engine import Simulator
from repro.sim.link import Link


def _repair_sink(kernel):
    """Deadline-release path for a repair buffer: the same enqueue + softirq
    kick the driver's ISR performs (works for the UP kernel and for the mq
    per-queue :class:`~repro.mq.kernel.SoftirqPort` alike)."""

    def sink(pkts):
        if pkts:
            kernel.aggregator.enqueue(pkts)
            kernel.softirq_aggregated()

    return sink


class ReceiverMachine:
    """The server machine of the paper's evaluation."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        opt: OptimizationConfig,
        ip: Optional[int] = None,
        name: str = "server",
    ):
        self.sim = sim
        self.config = config
        self.opt = opt
        self.ip = ip if ip is not None else ip_from_str("10.0.0.1")
        self.name = name

        self.cpu = Cpu(sim, config.cpu_freq_hz, costs=config.costs, locks=config.locks, name=f"{name}-cpu0")
        self.pool = BufferPool(name=f"{name}-skb")
        #: Rig-wide packet freelist: dead length-only packets (data segments
        #: freed with their skb, ACKs finished at the clients) are re-stamped
        #: by connection templates instead of reallocated.
        self.packet_slab: Optional[PacketSlab] = PacketSlab()
        self.pool.slab = self.packet_slab
        self.kernel = Kernel(sim, self.cpu, config, opt, pool=self.pool, name=name)
        self.kernel.packet_slab = self.packet_slab
        self.kernel.set_ip(self.ip)
        #: Memory hierarchy (None unless ``config.mem`` is set — the
        #: flat-equivalent default).  A UP machine is single-socket: one
        #: CPU/queue block on node 0 regardless of ``mem.nodes``.
        self.mem: Optional[MemoryHierarchy] = None
        self.topology: Optional[NumaTopology] = None
        if config.mem is not None:
            self.mem = MemoryHierarchy(config.mem)
            self.topology = NumaTopology(nodes=config.mem.nodes, cpus=1, queues=1)
            self.kernel.mem = self.mem
            self.kernel.topology = self.topology
        #: Graceful-degradation governor (None unless opt.auto_degrade and
        #: some coalescing engine exists to govern).  A configured repair
        #: stage needs one too — it upgrades the policy to three-mode.
        self.governor: Optional[CoalesceGovernor] = None
        if opt.repair is not None and not opt.receive_aggregation:
            raise ValueError("repair requires receive_aggregation")
        if (opt.auto_degrade or opt.repair is not None) and (
            opt.receive_aggregation or config.nic_lro
        ):
            self.governor = CoalesceGovernor(name=f"{name}-governor")
        if opt.receive_aggregation:
            self.kernel.aggregator = AggregationEngine(
                cpu=self.cpu,
                costs=config.costs,
                opt=opt,
                pool=self.pool,
                deliver=self.kernel.deliver_host_skb,
                governor=self.governor,
                name=f"{name}-aggr",
            )

        self.nics: List[Nic] = []
        self.drivers: List[E1000Driver] = []
        #: Reorder-repair buffers, one per driver (empty unless opt.repair).
        self.repairs: List[ReorderRepairBuffer] = []
        self.clients: List[ClientHost] = []
        #: Inbound (client -> NIC) links, one per client, in attach order —
        #: the fault injector and the sanitizer's link-conservation audit
        #: walk this list.
        self.links: List[Link] = []

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
        """Attach a client machine via a dedicated NIC and full-duplex link.

        ``batch_window_s`` enables batched link delivery on both directions
        (see :class:`~repro.sim.link.Link`); many-connection rigs use it to
        collapse back-to-back frames into one event each way.
        """
        cfg = self.config
        index = len(self.nics)
        nic = Nic(
            self.sim,
            ring_size=cfg.rx_ring_size,
            itr_interval_s=cfg.itr_interval_s,
            checksum_offload=cfg.checksum_offload,
            mtu=cfg.mtu,
            lro=LroEngine(limit=cfg.lro_limit, governor=self.governor) if cfg.nic_lro else None,
            name=f"{self.name}-eth{index}",
        )
        nic.adaptive_itr = cfg.adaptive_itr
        if self.mem is not None:
            for queue in nic.queues:
                queue.mem = self.mem
                queue.mem_node = self.topology.node_of_queue(queue.index)
        repair = None
        if self.opt.repair is not None and self.opt.receive_aggregation:
            repair = ReorderRepairBuffer(
                cpu=self.cpu,
                config=self.opt.repair,
                governor=self.governor,
                sink=_repair_sink(self.kernel),
                name=f"{self.name}-repair{index}",
            )
            self.repairs.append(repair)
        driver = E1000Driver(
            cpu=self.cpu,
            nic=nic,
            kernel=self.kernel,
            pool=self.pool,
            aggregation=self.opt.receive_aggregation,
            tso=cfg.tso,
            mss=cfg.mss,
            repair=repair,
            name=f"{self.name}-e1000-{index}",
        )
        inbound = Link(
            self.sim, cfg.nic_rate_bps, cfg.link_delay_s, sink=nic.rx_frame,
            drop_prob=drop_prob, reorder_prob=reorder_prob, dup_prob=dup_prob,
            rng=rng, batch_window_s=batch_window_s,
            name=f"{client.name}->{nic.name}",
        )
        outbound = Link(
            self.sim, cfg.nic_rate_bps, cfg.link_delay_s, sink=client.rx,
            batch_window_s=batch_window_s,
            name=f"{nic.name}->{client.name}",
        )
        client.attach_tx(inbound)
        nic.attach_tx(outbound)
        if client.packet_slab is None:
            client.packet_slab = self.packet_slab
        self.kernel.register_route(client.ip, driver)
        self.nics.append(nic)
        self.drivers.append(driver)
        self.clients.append(client)
        self.links.append(inbound)
        return nic

    # ------------------------------------------------------------------
    def listen(self, port: int, on_accept=None) -> None:
        self.kernel.listen(port, on_accept)

    @property
    def profiler(self):
        return self.cpu.profiler

    def total_ring_drops(self) -> int:
        """Tail drops summed over every queue of every NIC."""
        return sum(q.ring.dropped for nic in self.nics for q in nic.queues)

    def per_queue_counters(self) -> List[dict]:
        """Per-queue drop/occupancy rows (see reporting.queue_stats_rows)."""
        from repro.analysis.reporting import queue_stats_rows

        return queue_stats_rows(self.nics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReceiverMachine({self.config.name!r}, opt={self.opt}, nics={len(self.nics)})"
