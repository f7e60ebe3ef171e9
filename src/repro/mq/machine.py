"""The multi-queue receive host: N CPUs, N receive paths, one kernel.

Mirrors :class:`repro.host.machine.ReceiverMachine`, scaled out the way
Linux scales RSS hardware: every NIC exposes ``queues`` receive queues,
queue *i*'s MSI-X vector targets CPU *i*, and CPU *i* runs a complete
receive path — driver ISR, per-queue (per-CPU, lock-free — §3.5)
aggregation engine, softirq, and the application drain for sockets pinned
to it.  A shared :class:`~repro.mq.steering.SteeringPolicy` (one per
machine, like one RSS configuration per host) picks the queue for every
arriving frame.

Instead of the paper's blanket SMP lock inflation the CPUs run the
residual :func:`~repro.mq.costs.mq_lock_model`, and cross-CPU traffic is
charged mechanistically by :class:`~repro.mq.costs.CrossCpuCostModel`
(see :mod:`repro.mq.kernel`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.buffers.pool import BufferPool
from repro.buffers.slab import PacketSlab
from repro.core.aggregation import AggregationEngine
from repro.cpu.cpu import Cpu
from repro.driver.e1000 import E1000Driver
from repro.faults.degradation import CoalesceGovernor
from repro.faults.repair import ReorderRepairBuffer
from repro.host.machine import _repair_sink
from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.topology import NumaTopology
from repro.mq.costs import CrossCpuCostModel, mq_lock_model
from repro.mq.kernel import MqKernel, SoftirqPort
from repro.mq.steering import SteeringPolicy, make_policy
from repro.net.addresses import ip_from_str
from repro.nic.lro import LroEngine
from repro.nic.nic import Nic
from repro.sim.engine import Simulator
from repro.sim.link import Link


class MqReceiverMachine:
    """A server machine with ``queues`` per-CPU receive paths."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        opt: OptimizationConfig,
        queues: int = 4,
        steering: Union[str, SteeringPolicy] = "rss",
        cross: Optional[CrossCpuCostModel] = None,
        ip: Optional[int] = None,
        name: str = "mq-server",
    ):
        if queues < 1:
            raise ValueError("MqReceiverMachine needs at least one queue")
        if config.nic_lro and (opt.auto_degrade or opt.repair is not None):
            knob = "repair" if opt.repair is not None else "auto_degrade"
            raise ValueError(
                "hardware LRO (SystemConfig.nic_lro) cannot be combined with "
                f"OptimizationConfig.{knob} on the multi-queue rig — its LRO "
                "engines have no governor"
            )
        self.sim = sim
        self.config = config
        self.opt = opt
        self.queues = queues
        self.ip = ip if ip is not None else ip_from_str("10.0.0.1")
        self.name = name
        self.steering = (
            steering if isinstance(steering, SteeringPolicy) else make_policy(steering, queues)
        )
        self.cross = cross if cross is not None else CrossCpuCostModel()

        self.cpus: List[Cpu] = [
            Cpu(
                sim,
                config.cpu_freq_hz,
                costs=config.costs,
                locks=mq_lock_model(),
                name=f"{name}-cpu{i}",
            )
            for i in range(queues)
        ]
        self.pool = BufferPool(name=f"{name}-skb")
        #: Rig-wide packet freelist (see ReceiverMachine.packet_slab).
        self.packet_slab = PacketSlab()
        self.pool.slab = self.packet_slab
        self.kernel = MqKernel(
            sim,
            self.cpus,
            config,
            opt,
            steering=self.steering,
            cross=self.cross,
            pool=self.pool,
            name=name,
        )
        self.kernel.packet_slab = self.packet_slab
        self.kernel.set_ip(self.ip)
        #: Memory hierarchy + NUMA placement (None unless ``config.mem``).
        #: CPUs and queues split block-wise across ``mem.nodes``; each node
        #: gets its own sk_buff pool so queue *q*'s driver allocates
        #: node-local descriptors (all pools share the one packet slab).
        self.mem: Optional[MemoryHierarchy] = None
        self.topology: Optional[NumaTopology] = None
        self.pools: List[BufferPool] = [self.pool]
        if config.mem is not None:
            self.mem = MemoryHierarchy(config.mem)
            self.topology = NumaTopology(
                nodes=config.mem.nodes, cpus=queues, queues=queues
            )
            self.kernel.mem = self.mem
            self.kernel.topology = self.topology
            for node in range(1, config.mem.nodes):
                pool = BufferPool(name=f"{name}-skb-n{node}", node=node)
                pool.slab = self.packet_slab
                self.pools.append(pool)

        self.nics: List[Nic] = []
        self.drivers: List[List[E1000Driver]] = []  # per nic: one per queue
        self.clients: List[ClientHost] = []
        #: Inbound (client -> NIC) links in attach order (fault injector /
        #: sanitizer link-conservation audit).
        self.links: List[Link] = []
        #: Per-engine degradation governors (one per per-CPU aggregation
        #: engine — each receive path degrades independently, lock-free).
        self.governors: List[CoalesceGovernor] = []
        #: Per-queue reorder-repair buffers (empty unless ``opt.repair``) —
        #: each lives entirely on its queue's CPU, lock-free like the
        #: aggregation queue it feeds.
        self.repairs: List[ReorderRepairBuffer] = []
        if opt.repair is not None and not opt.receive_aggregation:
            raise ValueError("repair requires receive_aggregation")

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
        """Attach a client via a multi-queue NIC and full-duplex link.

        ``batch_window_s`` enables batched link delivery on both directions
        (same semantics as the single-queue machine); 0 keeps per-frame
        events, bit-identical to the pre-batching link.
        """
        cfg = self.config
        index = len(self.nics)
        nic = Nic(
            self.sim,
            ring_size=cfg.rx_ring_size,
            itr_interval_s=cfg.itr_interval_s,
            checksum_offload=cfg.checksum_offload,
            mtu=cfg.mtu,
            lro=LroEngine(limit=cfg.lro_limit) if cfg.nic_lro else None,
            n_queues=self.queues,
            steering=self.steering,
            name=f"{self.name}-eth{index}",
        )
        nic.adaptive_itr = cfg.adaptive_itr
        if self.mem is not None:
            for queue in nic.queues:
                queue.mem = self.mem
                queue.mem_node = self.topology.node_of_queue(queue.index)
        nic_drivers: List[E1000Driver] = []
        for q in range(self.queues):
            # Node-local descriptor pool for this queue's receive path.
            q_pool = (
                self.pools[self.topology.node_of_queue(q)]
                if self.mem is not None
                else self.pool
            )
            aggregator = None
            repair = None
            if self.opt.receive_aggregation:
                governor = None
                if self.opt.auto_degrade or self.opt.repair is not None:
                    governor = CoalesceGovernor(name=f"{self.name}-governor{index}.{q}")
                    self.governors.append(governor)
                # §3.5's per-CPU aggregation queue, one per receive path.
                aggregator = AggregationEngine(
                    cpu=self.cpus[q],
                    costs=cfg.costs,
                    opt=self.opt,
                    pool=q_pool,
                    deliver=self.kernel.deliver_host_skb,
                    governor=governor,
                    name=f"{self.name}-aggr{index}.{q}",
                )
                self.kernel.aggregators.append(aggregator)
            port = SoftirqPort(self.kernel, q, aggregator=aggregator)
            if self.opt.repair is not None and self.opt.receive_aggregation:
                # Per-queue repair stage: its governor, aggregation queue,
                # and CPU are all this receive path's own.
                repair = ReorderRepairBuffer(
                    cpu=self.cpus[q],
                    config=self.opt.repair,
                    governor=governor,
                    sink=_repair_sink(port),
                    name=f"{self.name}-repair{index}.{q}",
                )
                port.repair = repair
                self.repairs.append(repair)
            driver = E1000Driver(
                cpu=self.cpus[q],
                nic=nic,
                kernel=port,
                pool=q_pool,
                aggregation=self.opt.receive_aggregation,
                tso=cfg.tso,
                mss=cfg.mss,
                queue_index=q,
                repair=repair,
                name=f"{self.name}-e1000-{index}.{q}",
            )
            nic_drivers.append(driver)
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
        self.kernel.register_route(client.ip, nic_drivers)
        self.nics.append(nic)
        self.drivers.append(nic_drivers)
        self.clients.append(client)
        self.links.append(inbound)
        return nic

    # ------------------------------------------------------------------
    def ownership_map(self) -> List[Tuple[str, int]]:
        """The static part of the rig's CPU-ownership table: (component,
        owning CPU index) for every ring, aggregation engine, and softirq
        path.  Sockets join the table dynamically at accept time (see
        :meth:`MqKernel._accept_socket` and :mod:`repro.analysis.racecheck`,
        which enforces the table at run time).
        """
        table: List[Tuple[str, int]] = []
        for nic_drivers in self.drivers:
            for driver in nic_drivers:
                table.append(
                    (f"{driver.nic.name}.q{driver.queue.index} ring", driver.queue.owner_cpu)
                )
                table.append((f"{driver.name} softirq", driver.kernel.cpu_index))
        for aggregator in self.kernel.aggregators:
            owner = next(i for i, c in enumerate(self.cpus) if c is aggregator.cpu)
            table.append((aggregator.name, owner))
        for repair in self.repairs:
            owner = next(i for i, c in enumerate(self.cpus) if c is repair.cpu)
            table.append((repair.name, owner))
        return table

    def listen(self, port: int, on_accept=None) -> None:
        self.kernel.listen(port, on_accept)

    @property
    def profiler(self):
        """CPU 0's profiler (use :meth:`merged_profile` for the machine)."""
        return self.cpus[0].profiler

    def merged_profile(self):
        """Cycle/packet counters summed across every CPU."""
        return self.cpus[0].profiler.merged([cpu.profiler for cpu in self.cpus[1:]])

    def total_busy_cycles(self) -> float:
        return sum(cpu.busy_cycles for cpu in self.cpus)

    def total_ring_drops(self) -> int:
        """Tail drops summed over every queue of every NIC."""
        return sum(q.ring.dropped for nic in self.nics for q in nic.queues)

    def per_queue_counters(self) -> List[dict]:
        """Per-queue drop/occupancy rows (see reporting.queue_stats_rows)."""
        from repro.analysis.reporting import queue_stats_rows

        return queue_stats_rows(self.nics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MqReceiverMachine(queues={self.queues}, "
            f"steering={self.steering.name!r}, nics={len(self.nics)})"
        )
