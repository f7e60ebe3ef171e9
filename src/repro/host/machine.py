"""The receive host under test: one receive path per queue.

Assembles CPUs + NICs + drivers + kernel per a
:class:`~repro.host.configs.SystemConfig` and an
:class:`~repro.host.configs.OptimizationConfig`, and wires client machines
to its NICs (one full-duplex GbE link pair per client, like the paper's five
Pro/1000 cards each cabled to one sender machine).

``queues`` is the number of receive queues per NIC, and so of CPUs:

* ``queues=1`` is the paper's machine: one costed CPU running the
  :class:`~repro.host.kernel.Kernel` under ``config.locks``, with one
  aggregation engine and one degradation governor shared by every NIC.
  The SMP configuration inflates per-packet costs via the lock model but
  still processes all receive work on that one core (see configs.py for
  why).
* ``queues > 1`` scales out the way Linux scales RSS hardware: queue *i*'s
  MSI-X vector targets CPU *i*, and CPU *i* runs a complete receive path —
  driver ISR, per-CPU (lock-free, §3.5) aggregation engine, governor and
  repair stage, softirq, and the application drain for sockets pinned to
  it.  A shared :class:`~repro.mq.steering.SteeringPolicy` (one per
  machine, like one RSS configuration per host) picks the queue for every
  arriving frame.  Instead of the paper's blanket SMP lock inflation the
  CPUs run the residual :func:`~repro.mq.costs.mq_lock_model`, and
  cross-CPU traffic is charged by :class:`~repro.mq.costs.CrossCpuCostModel`
  (see :mod:`repro.host.kernel`).

Either way one :class:`~repro.host.kernel.Kernel` runs on the machine's
``cpus``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

from repro.buffers.pool import BufferPool
from repro.buffers.slab import PacketSlab
from repro.core.aggregation import AggregationEngine
from repro.cpu.cpu import Cpu
from repro.driver.e1000 import E1000Driver
from repro.faults.degradation import CoalesceGovernor
from repro.faults.repair import ReorderRepairBuffer
from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.host.kernel import Kernel
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.topology import NumaTopology
from repro.mq.costs import CrossCpuCostModel, mq_lock_model
from repro.mq.kernel import SoftirqPort
from repro.mq.steering import SteeringPolicy, make_policy
from repro.net.addresses import ip_from_str
from repro.nic.lro import LroEngine
from repro.nic.nic import Nic
from repro.sim.engine import Simulator
from repro.sim.link import Link


def _repair_sink(kernel):
    """Deadline-release path for a repair buffer: the same enqueue + softirq
    kick the driver's ISR performs (works for the kernel itself and for a
    per-queue :class:`~repro.mq.kernel.SoftirqPort` alike)."""

    def sink(pkts):
        if pkts:
            kernel.aggregator.enqueue(pkts)
            kernel.softirq_aggregated()

    return sink


class ReceiverBase:
    """The surface every consumer (sanitizer, racecheck, metrics, fault
    injector, experiments) reads off a receiver machine.

    Every list is flat: ``drivers`` holds one driver per NIC queue, and
    ``aggregators``/``governors``/``repairs`` one entry per receive path
    that has one.  ``clients`` and the inbound ``links`` are in attach
    order — the fault injector and the sanitizer's link-conservation audit
    walk them.
    """

    def __init__(self, sim: Simulator, config: SystemConfig, opt: OptimizationConfig,
                 ip: Optional[int], name: str):
        self.sim = sim
        self.config = config
        self.opt = opt
        self.ip = ip if ip is not None else ip_from_str("10.0.0.1")
        self.name = name
        self.cpus: List[Cpu] = []
        self.nics: List[Nic] = []
        self.drivers: List[E1000Driver] = []
        self.aggregators: List[AggregationEngine] = []
        self.governors: List[CoalesceGovernor] = []
        self.repairs: List[ReorderRepairBuffer] = []
        #: Every sk_buff pool the machine allocates from.
        self.pools: List[BufferPool] = []
        self.clients: List[ClientHost] = []
        self.links: List[Link] = []
        #: The multi-queue steering policy; None on one receive path.
        self.steering: Optional[SteeringPolicy] = None

    def _cable(
        self, client: ClientHost, nic: Nic, drop_prob: float, reorder_prob: float,
        dup_prob: float, rng, batch_window_s: float,
    ) -> None:
        """Connect ``client`` to ``nic`` with a full-duplex link pair.

        ``batch_window_s`` enables batched link delivery on both directions
        (see :class:`~repro.sim.link.Link`); many-connection rigs use it to
        collapse back-to-back frames into one event each way.
        """
        cfg = self.config
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
        self.nics.append(nic)
        self.clients.append(client)
        self.links.append(inbound)

    def _announce(self) -> None:
        """Hand the constructed machine to its simulator's observers (the
        sanitizer and race checker, when installed)."""
        for observer in self.sim.observers:
            observer.watch_machine(self)

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
        return math.fsum(cpu.busy_cycles for cpu in self.cpus)

    def total_ring_drops(self) -> int:
        """Tail drops summed over every queue of every NIC."""
        return sum(q.ring.dropped for nic in self.nics for q in nic.queues)


class ReceiverMachine(ReceiverBase):
    """The server machine of the paper's evaluation, with ``queues``
    receive paths (``queues=1`` is the paper's machine)."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        opt: OptimizationConfig,
        queues: int = 1,
        steering: Union[str, SteeringPolicy] = "rss",
        cross: Optional[CrossCpuCostModel] = None,
        ip: Optional[int] = None,
        name: Optional[str] = None,
    ):
        if queues < 1:
            raise ValueError("ReceiverMachine needs at least one queue")
        if opt.repair is not None and not opt.receive_aggregation:
            raise ValueError("repair requires receive_aggregation")
        if name is None:
            name = "server" if queues == 1 else "mq-server"
        super().__init__(sim, config, opt, ip, name)
        self.queues = queues
        #: One degradation governor per aggregation path, when some
        #: coalescing engine (software aggregation or hardware LRO) exists
        #: to govern.  A configured repair stage needs one too — it
        #: upgrades the policy to three-mode.
        self._governed = (opt.auto_degrade or opt.repair is not None) and (
            opt.receive_aggregation or config.nic_lro
        )

        if queues == 1:
            self.cpus.append(
                Cpu(sim, config.cpu_freq_hz, costs=config.costs, locks=config.locks,
                    name=f"{name}-cpu0")
            )
        else:
            self.steering = (
                steering if isinstance(steering, SteeringPolicy)
                else make_policy(steering, queues)
            )
            self.cpus.extend(
                Cpu(sim, config.cpu_freq_hz, costs=config.costs, locks=mq_lock_model(),
                    name=f"{name}-cpu{i}")
                for i in range(queues)
            )
        self.cpu = self.cpus[0]
        self.pool = BufferPool(name=f"{name}-skb")
        self.pools.append(self.pool)
        #: Rig-wide packet freelist: dead length-only packets (data segments
        #: freed with their skb, ACKs finished at the clients) are re-stamped
        #: by connection templates instead of reallocated.
        self.packet_slab = PacketSlab()
        self.pool.slab = self.packet_slab
        self.kernel = Kernel(
            sim, self.cpus, config, opt, steering=self.steering, cross=cross,
            pool=self.pool, name=name,
        )
        self.kernel.packet_slab = self.packet_slab
        self.kernel.set_ip(self.ip)
        #: Memory hierarchy + NUMA placement (None unless ``config.mem`` —
        #: the flat-equivalent default).  CPUs and queues split block-wise
        #: across ``mem.nodes``; with more than one queue each node gets its
        #: own sk_buff pool so queue *q*'s driver allocates node-local
        #: descriptors (all pools share the one packet slab).  A one-queue
        #: machine is single-socket: one CPU/queue block on node 0.
        self.mem: Optional[MemoryHierarchy] = None
        self.topology: Optional[NumaTopology] = None
        if config.mem is not None:
            self.mem = MemoryHierarchy(config.mem)
            self.topology = NumaTopology(nodes=config.mem.nodes, cpus=queues, queues=queues)
            self.kernel.mem = self.mem
            self.kernel.topology = self.topology
            if queues > 1:
                for node in range(1, config.mem.nodes):
                    pool = BufferPool(name=f"{name}-skb-n{node}", node=node)
                    pool.slab = self.packet_slab
                    self.pools.append(pool)
        if queues == 1:
            # The paper's machine: one aggregation path shared by every NIC.
            self._governor = self._add_governor(f"{name}-governor")
            self.kernel.aggregator = self._add_aggregator(
                self.cpu, self.pool, self._governor, f"{name}-aggr"
            )
        self._announce()

    def _add_governor(self, name: str) -> Optional[CoalesceGovernor]:
        if not self._governed:
            return None
        governor = CoalesceGovernor(name=name)
        self.governors.append(governor)
        return governor

    def _add_aggregator(self, cpu, pool, governor, name: str) -> Optional[AggregationEngine]:
        if not self.opt.receive_aggregation:
            return None
        aggregator = AggregationEngine(
            cpu=cpu,
            costs=self.config.costs,
            opt=self.opt,
            pool=pool,
            deliver=self.kernel.deliver_host_skb,
            governor=governor,
            name=name,
        )
        self.aggregators.append(aggregator)
        return aggregator

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

        The NIC gets ``queues`` receive queues, each with its own driver
        (and, with more than one queue, its own receive path).
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
        for q, queue in enumerate(nic.queues):
            if self.queues == 1:
                cpu, pool, kernel = self.cpu, self.pool, self.kernel
                governor, suffix = self._governor, f"{index}"
            else:
                # §3.5's per-CPU aggregation queue, one per receive path,
                # with its own governor and node-local descriptor pool.
                cpu = self.cpus[q]
                pool = self.pools[self.topology.node_of_queue(q)] if self.mem is not None else self.pool
                suffix = f"{index}.{q}"
                governor = self._add_governor(f"{self.name}-governor{suffix}")
                aggregator = self._add_aggregator(cpu, pool, governor, f"{self.name}-aggr{suffix}")
                kernel = SoftirqPort(self.kernel, q, aggregator=aggregator)
            if queue.lro is not None:
                queue.lro.governor = governor
                queue.lro.slab = self.packet_slab
            repair = None
            if self.opt.repair is not None:
                # The repair stage shares its path's governor, aggregation
                # queue and CPU.
                repair = ReorderRepairBuffer(
                    cpu=cpu,
                    config=self.opt.repair,
                    governor=governor,
                    sink=_repair_sink(kernel),
                    name=f"{self.name}-repair{suffix}",
                )
                self.repairs.append(repair)
            driver = E1000Driver(
                cpu=cpu,
                nic=nic,
                kernel=kernel,
                pool=pool,
                aggregation=self.opt.receive_aggregation,
                tso=cfg.tso,
                mss=cfg.mss,
                queue_index=q,
                repair=repair,
                name=f"{self.name}-e1000-{suffix}",
            )
            nic_drivers.append(driver)
        self._cable(client, nic, drop_prob, reorder_prob, dup_prob, rng, batch_window_s)
        if client.packet_slab is None:
            client.packet_slab = self.packet_slab
        # The sending CPU uses its own queue's driver (MSI-X tx/rx pairing).
        self.kernel.register_route(client.ip, nic_drivers)
        self.drivers.extend(nic_drivers)
        return nic

    # ------------------------------------------------------------------
    def ownership_map(self) -> List[Tuple[str, int]]:
        """The static part of the rig's CPU-ownership table: (component,
        owning CPU index) for every ring, aggregation engine, repair stage
        and softirq path.  Sockets join the table dynamically at accept
        time (see :meth:`Kernel._demux <repro.host.kernel.Kernel._demux>`
        and :mod:`repro.analysis.racecheck`, which enforces the table at run
        time on machines with more than one CPU).
        """
        owner = {id(cpu): i for i, cpu in enumerate(self.cpus)}
        table: List[Tuple[str, int]] = []
        for driver in self.drivers:
            table.append((f"{driver.nic.name}.q{driver.queue.index} ring", driver.queue.owner_cpu))
            table.append((f"{driver.name} softirq", owner[id(driver.cpu)]))
        for component in (*self.aggregators, *self.repairs):
            table.append((component.name, owner[id(component.cpu)]))
        return table

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReceiverMachine({self.config.name!r}, queues={self.queues}, "
            f"opt={self.opt}, nics={len(self.nics)})"
        )
