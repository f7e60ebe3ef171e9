"""Per-CPU receive paths: the multi-queue kernel.

:class:`MqKernel` runs the *same* costed network stack as
:class:`repro.host.kernel.Kernel` — same demux, same per-packet charges,
same transmit paths — but over N CPUs instead of one.  The kernel tracks
which CPU is currently executing (``_current_idx``); every inherited
``self.cpu.consume(...)`` charge lands on that CPU via the ``cpu``
property, so the whole base kernel becomes per-CPU without duplicating it.

Execution contexts and how they pick their CPU:

* **Softirq** — each NIC queue's driver holds a :class:`SoftirqPort` bound
  to that queue's CPU; the port enters that CPU around the softirq body.
* **Application** — each accepted socket is pinned round-robin to an
  ``app_cpu_index`` at accept time; :meth:`MqKernel.app_drain` switches to
  it for syscall/copy/window-update work, charging IPI + remote-wakeup
  cycles when it differs from the softirq CPU.
* **Timers** — :class:`MqKernelTimers` captures the scheduling CPU and
  fires the callback there (Linux timers stay on their arming CPU).

Cross-CPU traffic is charged mechanistically (see :mod:`repro.mq.costs`):
a demux that lands on a socket consumed by another CPU pays cache-line
bounce cycles; a cross-CPU wakeup pays IPI + remote-wakeup cycles.  All of
it lands in ``Category.XCPU``, which is what makes the RSS-vs-aRFS gap
visible in the breakdowns.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.buffers.pool import BufferPool
from repro.buffers.skbuff import SkBuff
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.host.kernel import RECV_CHUNK, Kernel, KernelSocket
from repro.mem.zerocopy import zcrx_item_cycles
from repro.mq.costs import CrossCpuCostModel
from repro.mq.steering import SteeringPolicy
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.obs.ledger import UNATTRIBUTED
from repro.obs.trace import Stage, cpu_tid
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConnection


class MqKernelTimers:
    """TCP timers that fire on the CPU that armed them."""

    def __init__(self, sim: Simulator, kernel: "MqKernel"):
        self.sim = sim
        self.kernel = kernel

    def schedule(self, delay: float, fn: Callable[[], None]) -> "_MqTimerHandle":
        return _MqTimerHandle(self, delay, fn, self.kernel._current_idx)


class _MqTimerHandle:
    __slots__ = ("timers", "fn", "cancelled", "event", "cpu_index")

    def __init__(self, timers: MqKernelTimers, delay: float, fn: Callable[[], None], cpu_index: int):
        self.timers = timers
        self.fn = fn
        self.cancelled = False
        self.cpu_index = cpu_index
        self.event = timers.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if not self.cancelled:
            self.timers.kernel.cpus[self.cpu_index].submit(self._run)

    def _run(self) -> None:
        if self.cancelled:
            return
        kernel = self.timers.kernel
        prev = kernel.enter_cpu(self.cpu_index)
        try:
            self.fn()
        finally:
            kernel._current_idx = prev

    def postpone(self, delay: float) -> bool:
        """Move the deadline later in place; the timer then fires on the
        CPU that re-armed it, as a freshly scheduled one would."""
        if not self.event.postpone(delay):
            return False
        self.cpu_index = self.timers.kernel._current_idx
        return True

    def cancel(self) -> None:
        self.cancelled = True
        self.event.cancel()


class SoftirqPort:
    """The driver-facing kernel interface for one receive queue.

    Each per-queue driver gets one of these as its ``kernel``: it pins the
    kernel's current CPU to the queue's CPU for the duration of the softirq
    and owns that queue's (per-CPU, lock-free — §3.5) aggregation engine.
    """

    def __init__(self, kernel: "MqKernel", cpu_index: int, aggregator=None):
        self.kernel = kernel
        self.cpu_index = cpu_index
        self.aggregator = aggregator

    def softirq_baseline(self, skbs: List[SkBuff]) -> None:
        prev = self.kernel.enter_cpu(self.cpu_index)
        try:
            self.kernel.softirq_baseline(skbs)
        finally:
            self.kernel._current_idx = prev

    def softirq_aggregated(self) -> None:
        prev = self.kernel.enter_cpu(self.cpu_index)
        try:
            self.kernel.run_aggregator(self.aggregator)
        finally:
            self.kernel._current_idx = prev


class MqKernel(Kernel):
    """The base kernel generalized to N CPUs with flow steering."""

    def __init__(
        self,
        sim: Simulator,
        cpus: List[Cpu],
        config: SystemConfig,
        opt: OptimizationConfig,
        steering: Optional[SteeringPolicy] = None,
        cross: Optional[CrossCpuCostModel] = None,
        pool: Optional[BufferPool] = None,
        name: str = "mq-kernel",
    ):
        if not cpus:
            raise ValueError("MqKernel needs at least one CPU")
        # Set before super().__init__: the base constructor assigns
        # ``self.cpu`` (absorbed by the property below) and our ``cpu``
        # getter needs ``cpus``/``_current_idx`` in place.
        self.cpus = list(cpus)
        self._current_idx = 0
        self.steering = steering
        self.cross = cross if cross is not None else CrossCpuCostModel()
        self._next_app_cpu = 0
        #: Race checker seam (None unless --racecheck): same idiom as the
        #: tracer's ``_tr`` — one attribute load on the charged paths.
        self._rc = None
        super().__init__(sim, self.cpus[0], config, opt, pool=pool, name=name)
        self.timers = MqKernelTimers(sim, self)

    # ------------------------------------------------------------------
    # current-CPU tracking
    # ------------------------------------------------------------------
    @property
    def cpu(self) -> Cpu:
        """The CPU currently executing kernel code (softirq, app, timer)."""
        return self.cpus[self._current_idx]

    @cpu.setter
    def cpu(self, value: Cpu) -> None:
        # The base constructor assigns the single-path CPU; here the active
        # CPU is always derived from _current_idx, so the assignment only
        # sanity-checks that it names one of ours.
        if value is not self.cpus[self._current_idx]:
            raise ValueError("MqKernel.cpu is derived from the current CPU index")

    def enter_cpu(self, index: int) -> int:
        """Switch kernel execution to ``cpus[index]``; returns the previous
        index so callers can restore it."""
        prev = self._current_idx
        self._current_idx = index
        return prev

    # ------------------------------------------------------------------
    # softirq (per-queue aggregation engines)
    # ------------------------------------------------------------------
    def run_aggregator(self, aggregator) -> None:
        """Optimized softirq body for one queue's aggregation engine."""
        tr = self._tr
        if tr is not None:
            t0 = max(self.cpu.busy_until, self.sim.now)
            n_in = len(aggregator.queue)
        led = self._led
        if led is not None:
            led.push_stage("softirq")
        self.cpu.consume(self.cpu.costs.softirq_dispatch, Category.MISC)
        aggregator.run()
        self.app_drain()
        if led is not None:
            led.pop_stage()
        if tr is not None:
            tr.event(
                Stage.AGGR_RUN,
                t0,
                max(0.0, self.cpu.busy_until - t0),
                tid=cpu_tid(self.cpu),
                args={"pkts": n_in},
            )

    # ------------------------------------------------------------------
    # demux: socket pinning + cross-CPU state bouncing
    # ------------------------------------------------------------------
    def _accept_socket(self, key: FlowKey, conn: TcpConnection) -> KernelSocket:
        sock = KernelSocket(self, conn)
        index = self._next_app_cpu % len(self.cpus)
        self._next_app_cpu += 1
        sock.app_cpu_index = index
        if self.steering is not None:
            # ``key`` is the local 4-tuple; the NIC steers on the wire
            # (client -> server) direction, which is its reverse.
            self.steering.note_consumer(key.reverse(), index)
        if self._rc is not None:
            self._rc.tag_socket(sock, index)
        return sock

    def _mem_node_of(self, sock: KernelSocket) -> int:
        topology = self.topology
        if topology is None:
            return 0
        return topology.node_of_cpu(sock.app_cpu_index)

    def _demux(self, pkt: Packet):
        conn, sock = super()._demux(pkt)
        if sock is not None and sock.app_cpu_index != self._current_idx:
            # The connection's hot state was last touched on the consuming
            # CPU: pull it across caches (§2.3's contention, priced per
            # line instead of as a blanket factor).
            self.cpu.consume(self.cross.bounce_cycles(), Category.XCPU)
            if self._rc is not None:
                self._rc.note_socket_access(sock, self._current_idx, "demux")
            tr = self._tr
            if tr is not None:
                tr.event(
                    Stage.XCPU_BOUNCE,
                    max(self.cpu.busy_until, self.sim.now),
                    tid=cpu_tid(self.cpu),
                    args={"app_cpu": sock.app_cpu_index},
                )
        return conn, sock

    # ------------------------------------------------------------------
    # application drain: per-socket CPU switching
    # ------------------------------------------------------------------
    def app_drain(self) -> None:
        if not self._dirty_sockets:
            return
        softirq_idx = self._current_idx
        led = self._led
        if led is not None:
            led.push_stage("sock_read")
            prev_flow = led.set_flow(UNATTRIBUTED)
        self.cpu.consume(self.cpu.costs.wakeup, Category.MISC)
        tr = self._tr
        dirty, self._dirty_sockets = self._dirty_sockets, []
        try:
            for sock in dirty:
                sock.dirty = False
                nbytes = sock.pending_bytes
                if nbytes <= 0:
                    continue
                if led is not None:
                    # Server-side keys are reversed: src port = service port.
                    led.set_flow(led.flow_for_port(sock.conn.key.src_port))
                app_idx = sock.app_cpu_index
                if app_idx != softirq_idx:
                    # Cross-CPU wakeup: IPI from the softirq CPU, interrupt
                    # entry + schedule on the application's CPU.
                    self.cpus[softirq_idx].consume(self.cross.ipi_cycles, Category.XCPU)
                    self._current_idx = app_idx
                    self.cpu.consume(self.cross.remote_wakeup_cycles, Category.XCPU)
                    if self._rc is not None:
                        self._rc.note_socket_access(sock, softirq_idx, "app wakeup")
                    if tr is not None:
                        tr.event(
                            Stage.XCPU_WAKEUP,
                            max(self.cpu.busy_until, self.sim.now),
                            tid=app_idx,
                            args={"from_cpu": softirq_idx},
                        )
                else:
                    self._current_idx = app_idx
                if tr is not None:
                    t0 = max(self.cpu.busy_until, self.sim.now)
                costs = self.cpu.costs
                consume = self.cpu.consume
                syscalls = max(1, math.ceil(nbytes / RECV_CHUNK))
                consume(costs.syscall * syscalls, Category.MISC)
                if self.opt.zero_copy:
                    zc = self.zcrx
                    for item_bytes, extra_frags, meminfo in sock.pending_items:
                        cycles, pages, cold = zcrx_item_cycles(costs, item_bytes, meminfo)
                        consume(cycles, Category.PER_BYTE)
                        zc.skbs += 1
                        zc.pages_mapped += pages
                        zc.cold_pages += cold
                else:
                    mem = self.mem
                    for item_bytes, extra_frags, meminfo in sock.pending_items:
                        if meminfo is None:
                            cycles = costs.copy_cycles(item_bytes)
                        else:
                            cycles = mem.copy_cycles(
                                item_bytes, meminfo, costs.cache.copy_cycles_per_byte
                            )
                        consume(
                            cycles + costs.copy_setup_per_fragment * extra_frags,
                            Category.PER_BYTE,
                        )
                        self.copy_charged_items += 1
                pending, sock.pending = sock.pending, []
                sock.pending_items = []
                sock.pending_item_bytes = 0
                sock.pending_bytes = 0
                sock.bytes_received += nbytes
                # mark_read may emit a window update: it is sent from the
                # application's CPU (Linux: from the syscall context).
                sock.conn.mark_read(nbytes)
                if tr is not None:
                    tr.event(
                        Stage.SOCK_READ,
                        t0,
                        max(0.0, self.cpu.busy_until - t0),
                        tid=app_idx,
                        args={"bytes": nbytes},
                    )
                if sock.on_data_cb is not None:
                    for payload, length in pending:
                        sock.on_data_cb(sock, payload, length)
                self._current_idx = softirq_idx
        finally:
            self._current_idx = softirq_idx
            if led is not None:
                led.pop_stage()
                led.set_flow(prev_flow)

    # ------------------------------------------------------------------
    # transmit: one tx driver per CPU per destination
    # ------------------------------------------------------------------
    def register_route(self, dst_ip: int, drivers) -> None:
        """Route ``dst_ip`` through a per-CPU driver list; the sending CPU
        uses its own queue's driver (MSI-X tx/rx pairing)."""
        self.routes[dst_ip] = drivers

    def _driver_for(self, conn: TcpConnection):
        drivers = self.routes.get(conn.key.dst_ip)
        if drivers is None:
            raise RuntimeError(f"{self.name}: no route to {conn.key.dst_ip}")
        return drivers[self._current_idx % len(drivers)]
