"""The costed receive-side kernel of the host under test.

Everything the paper profiles happens here or in the driver: softirq
processing, IP/TCP layer work, buffer management, ACK transmission, the
socket layer, copy-to-user, and wakeups.  Each operation charges cycles on
the host CPU in the category the paper's figures use.

The kernel also implements the transport interface of
:class:`repro.tcp.connection.TcpConnection`, which is where Acknowledgment
Offload plugs in: a batch of consecutive ACKs becomes a single template-ACK
sk_buff (§4) when the optimization is enabled.

One kernel runs on a list of CPUs; the paper's machine is the one-CPU
case.  ``cpu`` is the CPU executing kernel code right now, and only
:meth:`Kernel.enter_cpu` moves it.  Execution contexts pick their CPU so:

* **Softirq** — each receive queue's driver enters its queue's CPU around
  the softirq body (:class:`~repro.mq.kernel.SoftirqPort`; with one queue
  the driver calls the kernel directly and CPU 0 is current).
* **Application** — each accepted socket is pinned round-robin to an
  ``app_cpu_index``; :meth:`Kernel.app_drain` drains it there, charging
  IPI + remote-wakeup cycles when that is not the softirq's CPU.
* **Timers** — :class:`KernelTimers` fire on the CPU that armed them
  (Linux timers stay on their arming CPU).

Cross-CPU traffic is charged mechanistically (see :mod:`repro.mq.costs`):
a demux that lands on a socket consumed by another CPU pays cache-line
bounce cycles, and a cross-CPU wakeup pays IPI + remote-wakeup cycles, all
in ``Category.XCPU``.  With one CPU every socket is pinned to CPU 0, so
none of it ever runs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.buffers.pool import BufferPool
from repro.buffers.skbuff import SkBuff
from repro.core.ack_offload import build_template_ack_skb
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.mem.zerocopy import ZcrxStats, zcrx_item_cycles
from repro.mq.costs import CrossCpuCostModel
from repro.mq.steering import SteeringPolicy
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.obs.ledger import UNATTRIBUTED
from repro.obs.runtime import active_ledger, active_tracer
from repro.obs.trace import Stage, cpu_tid
from repro.sim.engine import Simulator
from repro.tcp.connection import AckEvent, TcpConfig, TcpConnection
from repro.tcp.source import ByteSource

#: Bytes one recv() syscall consumes (netperf-style 16 KiB reads).
RECV_CHUNK = 16384


class KernelTimers:
    """TCP timers that fire as tasks on the CPU that armed them
    (serialized with that CPU's packet work)."""

    def __init__(self, sim: Simulator, kernel: "Kernel"):
        self.sim = sim
        self.kernel = kernel

    def schedule(self, delay: float, fn: Callable[[], None]) -> "_KernelTimerHandle":
        return _KernelTimerHandle(self, delay, fn, self.kernel._current_idx)


class _KernelTimerHandle:
    __slots__ = ("timers", "fn", "cancelled", "event", "cpu_index")

    def __init__(self, timers: KernelTimers, delay: float, fn: Callable[[], None], cpu_index: int):
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
            kernel.enter_cpu(prev)

    def postpone(self, delay: float) -> bool:
        """Move the deadline later in place (see :meth:`Event.postpone`);
        the timer then fires on the CPU that re-armed it, as a freshly
        scheduled one would.  False once the timer has fired, been
        cancelled, or would move earlier.  No CPU task is ever submitted at
        the old deadline."""
        if not self.event.postpone(delay):
            return False
        self.cpu_index = self.timers.kernel._current_idx
        return True

    def cancel(self) -> None:
        self.cancelled = True
        self.event.cancel()


class KernelSocket:
    """Socket endpoint on the host under test.

    Received data sits in ``pending`` (owned by sk_buffs conceptually) until
    the end-of-softirq application drain copies it to user space — at which
    point the kernel charges wakeup/syscall/copy cycles and invokes the
    application callback.  ``pending`` and ``pending_items`` are None while
    nothing waits: the first delivery creates them and the drain drops
    them, so an idle socket (most of a many-connection rig's) holds no list.
    """

    __slots__ = (
        "kernel", "conn", "pending", "pending_bytes", "pending_items",
        "pending_item_bytes", "bytes_received", "established", "remote_closed",
        "closed", "dirty", "on_data_cb", "on_established_cb", "app_cpu_index",
    )

    def __init__(self, kernel: "Kernel", conn: TcpConnection):
        self.kernel = kernel
        self.conn = conn
        conn.app = self
        self.pending: Optional[List[Tuple[Optional[bytes], int]]] = None
        self.pending_bytes = 0
        #: (bytes, extra_fragments, meminfo) per delivered skb — drives
        #: copy/remap costs.  ``meminfo`` is the memory hierarchy's source
        #: line classification, None when the hierarchy is off.
        self.pending_items: Optional[List[Tuple[int, int, Optional[tuple]]]] = None
        #: Sum of the bytes in ``pending_items``.
        self.pending_item_bytes = 0
        #: CPU the application runs on (pinned by the kernel at accept).
        self.app_cpu_index = 0
        self.bytes_received = 0
        self.established = False
        self.remote_closed = False
        self.closed = False
        #: True while queued on the kernel's dirty list (O(1) membership
        #: test; the list itself keeps first-dirtied drain order).
        self.dirty = False
        #: Application callback: fn(socket, payload_bytes_or_None, length).
        self.on_data_cb: Optional[Callable[["KernelSocket", Optional[bytes], int], None]] = None
        self.on_established_cb: Optional[Callable[["KernelSocket"], None]] = None

    # ---- connection callbacks (run inside conn.on_segment) ----
    def on_established(self, conn: TcpConnection) -> None:
        self.established = True
        if self.on_established_cb is not None:
            self.on_established_cb(self)

    def on_data(self, conn: TcpConnection, payload: Optional[bytes], length: int) -> None:
        pending = self.pending
        if pending is None:
            self.pending = [(payload, length)]
        else:
            pending.append((payload, length))
        self.pending_bytes += length

    def on_remote_close(self, conn: TcpConnection) -> None:
        self.remote_closed = True

    def on_closed(self, conn: TcpConnection) -> None:
        self.closed = True

    # ---- application side ----
    def send(self, data: bytes) -> None:
        """Application write: queues data and kicks the (costed) tx path."""
        if self.conn.source is None:
            self.conn.attach_source(ByteSource())
        self.conn.source.write(data)
        self.conn.app_wrote()

    def close(self) -> None:
        self.conn.close()


class Kernel:
    """The receive host's network stack, socket layer, and app drain, on
    ``cpus`` (one CPU is the paper's machine)."""

    def __init__(
        self,
        sim: Simulator,
        cpus: Sequence[Cpu],
        config: SystemConfig,
        opt: OptimizationConfig,
        steering: Optional[SteeringPolicy] = None,
        cross: Optional[CrossCpuCostModel] = None,
        pool: Optional[BufferPool] = None,
        name: str = "kernel",
    ):
        if not cpus:
            raise ValueError("Kernel needs at least one CPU")
        self.sim = sim
        self.cpus = list(cpus)
        #: The CPU executing kernel code now (softirq, application or
        #: timer) and its index; only :meth:`enter_cpu` moves them.
        self.cpu = self.cpus[0]
        self._current_idx = 0
        self.steering = steering
        self.cross = cross if cross is not None else CrossCpuCostModel()
        self._next_app_cpu = 0
        #: Race checker seam (None unless --racecheck): same idiom as the
        #: tracer's ``_tr`` — one attribute load on the charged paths.
        self._rc = None
        self.config = config
        self.opt = opt
        self.pool = pool if pool is not None else BufferPool(name=f"{name}-skb")
        self.name = name
        self.timers = KernelTimers(sim, self)

        self.connections: Dict[FlowKey, TcpConnection] = {}
        self.sockets: Dict[FlowKey, KernelSocket] = {}
        self.listeners: Dict[int, Callable[[KernelSocket], None]] = {}
        #: dst ip -> one transmit driver per CPU (MSI-X tx/rx pairing).
        self.routes: Dict[int, List[object]] = {}
        self.ip: int = 0
        self._iss = 5_000_000
        self._dirty_sockets: List[KernelSocket] = []
        #: Shared per-rig packet slab; attached to every accepted
        #: connection's template so ACK transmission recycles dead packets.
        self.packet_slab = None

        self.aggregator = None  # set by the machine when aggregation is on
        #: Memory hierarchy + NUMA topology (None unless ``config.mem`` is
        #: set; wired by the machine).  With both None every charge goes
        #: through the flat CacheModel, byte-identical to the pre-mem code.
        self.mem = None
        self.topology = None
        #: Zero-copy receive counters (populated only when opt.zero_copy).
        self.zcrx = ZcrxStats()
        #: Items delivered through the copy loop — the sanitizer asserts
        #: this stays 0 under opt.zero_copy (no copy charged under zcrx).
        self.copy_charged_items = 0
        #: Data segments the software checksum pass rejected (corrupted in
        #: flight, no hardware offload to catch them earlier).
        self.rx_csum_drops = 0
        #: Template-ACK batches that fell back to per-ACK transmit because
        #: the sk_buff pool was exhausted.
        self.ack_template_alloc_fails = 0
        #: Lifecycle tracer captured at construction (None = tracing off).
        self._tr = active_tracer()
        #: Cycle ledger captured at construction (None = ledger off).
        self._led = active_ledger()
        #: Extra keyword overrides applied to every accepted connection's
        #: TcpConfig (e.g. a larger rcv_buf for long-fat-pipe experiments).
        self.tcp_overrides: Dict[str, object] = {}
        #: The config and clock every accepted connection shares; the config
        #: is rebuilt when ``tcp_overrides`` changed since it was built.
        self._tcp_config: Optional[TcpConfig] = None
        self._tcp_config_overrides: Dict[str, object] = {}
        self._clock = lambda: sim.now

    # ------------------------------------------------------------------
    # configuration / wiring
    # ------------------------------------------------------------------
    def set_ip(self, ip: int) -> None:
        self.ip = ip

    def enter_cpu(self, index: int) -> int:
        """Switch kernel execution to ``cpus[index]``; returns the previous
        index so callers can restore it."""
        prev = self._current_idx
        self._current_idx = index
        self.cpu = self.cpus[index]
        return prev

    def register_route(self, dst_ip: int, drivers: Sequence[object]) -> None:
        """Route ``dst_ip`` through one transmit driver per CPU, indexed
        like ``cpus``; the sending CPU uses its own queue's driver."""
        self.routes[dst_ip] = list(drivers)

    def listen(self, port: int, on_accept: Optional[Callable[[KernelSocket], None]] = None) -> None:
        """Accept connections on ``port``; ``on_accept(socket)`` lets the
        application install its callbacks."""
        self.listeners[port] = on_accept or (lambda sock: None)

    def default_tcp_config(self) -> TcpConfig:
        """The config accepted connections share, with ``tcp_overrides``
        as they stand now."""
        if self._tcp_config is None or self._tcp_config_overrides != self.tcp_overrides:
            self._tcp_config_overrides = dict(self.tcp_overrides)
            self._tcp_config = TcpConfig(
                mss=self.config.mss,
                aggregation_aware=self.opt.receive_aggregation and self.opt.modified_tcp,
                gso_segments=self.config.tso_gso_segments if self.config.tso else 1,
                **self.tcp_overrides,
            )
        return self._tcp_config

    def _next_iss(self) -> int:
        self._iss = (self._iss + 64000) & 0xFFFFFFFF
        return self._iss

    # ------------------------------------------------------------------
    # softirq entry points (called from driver ISR tasks)
    # ------------------------------------------------------------------
    def softirq_baseline(self, skbs: List[SkBuff]) -> None:
        """Baseline path: one sk_buff per network packet."""
        tr = self._tr
        if tr is not None:
            t0 = max(self.cpu.busy_until, self.sim.now)
        led = self._led
        if led is not None:
            led.push_stage("softirq")
        self.cpu.consume(self.cpu.costs.softirq_dispatch, Category.MISC)
        for skb in skbs:
            self.deliver_host_skb(skb)
        self.app_drain()
        if led is not None:
            led.pop_stage()
        if tr is not None:
            tr.event(
                Stage.SOFTIRQ,
                t0,
                max(0.0, self.cpu.busy_until - t0),
                tid=cpu_tid(self.cpu),
                args={"skbs": len(skbs)},
            )

    def softirq_aggregated(self, aggregator=None) -> None:
        """Optimized path: run an aggregation engine over its queue — the
        kernel's own, or the receive queue's a :class:`SoftirqPort` passes."""
        if aggregator is None:
            aggregator = self.aggregator
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

    #: The same body under the name :class:`~repro.mq.kernel.SoftirqPort`
    #: calls, so per-queue softirqs stay countable apart from the one-queue
    #: path (perfbench's ``mq`` layer wraps ``MqKernel.run_aggregator``).
    run_aggregator = softirq_aggregated

    # ------------------------------------------------------------------
    # host-packet delivery (the network stack proper)
    # ------------------------------------------------------------------
    def deliver_host_skb(self, skb: SkBuff) -> None:
        """Process one host packet through IP/TCP and the socket layer."""
        costs = self.cpu.costs
        consume = self.cpu.consume
        pkt = skb.head
        tr = self._tr
        if tr is not None:
            t0 = max(self.cpu.busy_until, self.sim.now)
        led = self._led
        if led is not None:
            prev_flow = led.set_flow(led.flow_for_port(pkt.tcp.dst_port))
            led.push_stage("tcp_rx")

        if not skb.csum_verified and pkt.payload_len > 0:
            # No hardware checksum: the stack verifies in software (per-byte).
            consume(costs.checksum_cycles(skb.payload_len), Category.PER_BYTE)
            if pkt.corrupted:
                # The software checksum caught in-flight damage: drop the
                # segment before TCP sees it; retransmission recovers it.
                self.rx_csum_drops += 1
                skb.free()
                consume(costs.skb_free, Category.BUFFER)
                if led is not None:
                    led.pop_stage()
                    led.set_flow(prev_flow)
                if tr is not None:
                    tr.event(
                        Stage.TCP_RX,
                        t0,
                        max(0.0, self.cpu.busy_until - t0),
                        tid=cpu_tid(self.cpu),
                        args={"seq": pkt.tcp.seq, "csum_drop": 1},
                    )
                return

        consume(costs.non_proto_rx, Category.NON_PROTO)
        consume(costs.ip_rx, Category.RX)
        consume(costs.tcp_rx, Category.RX)
        nr_frags = len(skb.frags)
        nr_segments = 1 + nr_frags
        if nr_frags:
            # Modified TCP layer: walk the per-fragment metadata (§3.4).
            consume(costs.tcp_rx_per_fragment * nr_segments, Category.RX)
        self.cpu.profiler.host_packets += 1

        conn, sock = self._demux(pkt)
        if conn is None:
            skb.free()
            consume(costs.skb_free, Category.BUFFER)
            if led is not None:
                led.pop_stage()
                led.set_flow(prev_flow)
            if tr is not None:
                tr.event(
                    Stage.TCP_RX,
                    t0,
                    max(0.0, self.cpu.busy_until - t0),
                    tid=cpu_tid(self.cpu),
                    args={"seq": pkt.tcp.seq, "segs": nr_segments, "drop": 1},
                )
            return

        if nr_frags:
            agg_payload = skb.payload_bytes() if pkt.payload is not None else None
            conn.on_segment(
                pkt, skb.frag_acks, skb.frag_end_seqs, skb.frag_windows, nr_segments,
                agg_payload, skb.payload_len,
            )
        else:
            conn.on_segment(pkt)

        if sock is not None and sock.pending_bytes > 0:
            consume(costs.misc_per_host_packet, Category.MISC)
            new_bytes = sock.pending_bytes - sock.pending_item_bytes
            if new_bytes > 0:
                mem = self.mem
                if mem is not None:
                    # Classify the payload's source lines now: delivery and
                    # the app drain run in the same softirq, so no DMA can
                    # interleave — warmth loss is decided by the DMA-to-
                    # softirq latency (ITR batching pressure), not here.
                    topology = self.topology
                    consumer = (
                        0 if topology is None else topology.node_of_cpu(sock.app_cpu_index)
                    )
                    meminfo = mem.consume_skb(skb, consumer)
                    if skb.pool is not None and skb.pool.node != consumer:
                        consume(mem.remote_skb_touch_cycles(), Category.BUFFER)
                else:
                    meminfo = None
                items = sock.pending_items
                if items is None:
                    sock.pending_items = [(new_bytes, nr_frags, meminfo)]
                else:
                    items.append((new_bytes, nr_frags, meminfo))
                sock.pending_item_bytes = sock.pending_bytes
            if not sock.dirty:
                sock.dirty = True
                self._dirty_sockets.append(sock)

        skb.free()
        consume(costs.skb_free, Category.BUFFER)
        if nr_frags:
            consume(costs.frag_buffer_release * nr_frags, Category.BUFFER)
        if led is not None:
            led.pop_stage()
            led.set_flow(prev_flow)
        if tr is not None:
            tr.event(
                Stage.TCP_RX,
                t0,
                max(0.0, self.cpu.busy_until - t0),
                tid=cpu_tid(self.cpu),
                args={"seq": pkt.tcp.seq, "segs": nr_segments, "len": skb.payload_len},
            )
            # End-to-end pipeline latency: NIC arrival to TCP processing.
            tr.latency("latency.nic_to_tcp", max(0.0, t0 - pkt.rx_time))

    def _demux(self, pkt: Packet) -> Tuple[Optional[TcpConnection], Optional[KernelSocket]]:
        ip = pkt.ip
        tcp = pkt.tcp
        # Plain tuples hash/compare equal to FlowKey (a NamedTuple), so the
        # lookup skips constructing one.
        key = (ip.dst_ip, tcp.dst_port, ip.src_ip, tcp.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            sock = self.sockets.get(key)
        else:
            on_accept = self.listeners.get(tcp.dst_port)
            if on_accept is None:
                return None, None
            key = FlowKey(*key)
            conn = TcpConnection(
                key=key,
                config=self.default_tcp_config(),
                clock=self._clock,
                timers=self.timers,
                transport=self,
                iss=self._next_iss(),
            )
            conn.passive_open()
            if self.packet_slab is not None:
                conn._template.slab = self.packet_slab
            # Pin the socket to an application CPU, round-robin.
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
            self.connections[key] = conn
            self.sockets[key] = sock
            on_accept(sock)
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
    # application drain (end of softirq)
    # ------------------------------------------------------------------
    def app_drain(self) -> None:
        """Wake the receiving processes and copy pending data to user space.

        Each socket drains on its application CPU; one pinned to another
        CPU than the softirq's pays an IPI here and a remote wakeup there.
        """
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
                    self.enter_cpu(app_idx)
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
                if tr is not None:
                    t0 = max(self.cpu.busy_until, self.sim.now)
                costs = self.cpu.costs
                consume = self.cpu.consume
                syscalls = max(1, math.ceil(nbytes / RECV_CHUNK))
                consume(costs.syscall * syscalls, Category.MISC)
                items = sock.pending_items or ()
                if self.opt.zero_copy:
                    zc = self.zcrx
                    for item_bytes, extra_frags, meminfo in items:
                        cycles, pages, cold = zcrx_item_cycles(costs, item_bytes, meminfo)
                        consume(cycles, Category.PER_BYTE)
                        zc.skbs += 1
                        zc.pages_mapped += pages
                        zc.cold_pages += cold
                else:
                    mem = self.mem
                    for item_bytes, extra_frags, meminfo in items:
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
                pending, sock.pending = sock.pending, None
                sock.pending_items = None
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
                if app_idx != softirq_idx:
                    self.enter_cpu(softirq_idx)
        finally:
            if self._current_idx != softirq_idx:
                self.enter_cpu(softirq_idx)
            if led is not None:
                led.pop_stage()
                led.set_flow(prev_flow)

    # ------------------------------------------------------------------
    # transport interface (costed transmit paths)
    # ------------------------------------------------------------------
    def _driver_for(self, conn: TcpConnection):
        drivers = self.routes.get(conn.key.dst_ip)
        if drivers is None:
            raise RuntimeError(f"{self.name}: no route to {conn.key.dst_ip}")
        return drivers[self._current_idx]

    def send_packet(self, conn: TcpConnection, pkt: Packet) -> None:
        """Data/control segment transmit path (handshake, responses, FIN)."""
        costs = self.cpu.costs
        consume = self.cpu.consume
        led = self._led
        if led is not None:
            prev_flow = led.set_flow(led.flow_for_port(conn.key.src_port))
            led.push_stage("tx")
        if pkt.payload_len > 0:
            # Copy from user space into the kernel send buffer.
            consume(costs.copy_cycles(pkt.payload_len), Category.PER_BYTE)
        consume(costs.tcp_tx_data, Category.TX)
        consume(costs.ip_tx, Category.TX)
        consume(costs.skb_alloc, Category.BUFFER)
        consume(costs.non_proto_tx, Category.NON_PROTO)
        # The header leaves _build_packet either materialized (byte-accurate
        # mode) or deferred-valid (length-only mode); no recompute needed.
        self._driver_for(conn).tx(pkt)
        consume(costs.skb_free, Category.BUFFER)
        if led is not None:
            led.pop_stage()
            led.set_flow(prev_flow)

    def send_acks(self, conn: TcpConnection, event: AckEvent) -> None:
        """Pure-ACK transmit path — the Acknowledgment Offload hook (§4)."""
        costs = self.cpu.costs
        consume = self.cpu.consume
        driver = self._driver_for(conn)
        tr = self._tr
        led = self._led
        if led is not None:
            prev_flow = led.set_flow(led.flow_for_port(conn.key.src_port))
            led.push_stage("ack_tx")
        if self.opt.ack_offload and len(event.acks) > 1:
            # One template ACK through the stack, expanded at the driver.
            consume(costs.tcp_tx_ack, Category.TX)
            consume(costs.template_ack_per_entry * len(event.acks), Category.TX)
            consume(costs.ip_tx, Category.TX)
            skb = build_template_ack_skb(conn, event, self.pool, now=self.sim.now)
            if skb is not None:
                consume(costs.skb_alloc, Category.BUFFER)
                consume(costs.non_proto_tx, Category.NON_PROTO)
                if tr is not None:
                    tr.event(
                        Stage.ACK_TEMPLATE,
                        max(self.cpu.busy_until, self.sim.now),
                        tid=cpu_tid(self.cpu),
                        args={"acks": len(event.acks)},
                    )
                driver.tx_template(skb)
                if led is not None:
                    led.pop_stage()
                    led.set_flow(prev_flow)
                return
            # Pool exhausted (fault window): fall back to sending the batch
            # as individual ACKs — the wire still sees every ACK.
            self.ack_template_alloc_fails += 1
        for ack in event.acks:
            consume(costs.tcp_tx_ack, Category.TX)
            consume(costs.ip_tx, Category.TX)
            consume(costs.skb_alloc, Category.BUFFER)
            consume(costs.non_proto_tx, Category.NON_PROTO)
            pkt = conn.build_ack_packet(ack, event)
            if tr is not None:
                tr.event(
                    Stage.ACK_TX,
                    max(self.cpu.busy_until, self.sim.now),
                    tid=cpu_tid(self.cpu),
                    args={"ack": pkt.tcp.ack},
                )
            driver.tx(pkt, pure_ack=True)
            consume(costs.skb_free, Category.BUFFER)
        if led is not None:
            led.pop_stage()
            led.set_flow(prev_flow)
