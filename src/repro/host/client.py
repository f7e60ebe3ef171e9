"""Cost-free endpoint hosts (the paper's sender/client machines).

The paper's evaluation uses one client machine per NIC, each pushing (or
exchanging) data with the server under test; the clients are never the
bottleneck.  :class:`ClientHost` therefore runs the full TCP machine but
charges no CPU cycles: packets are processed synchronously on arrival and
transmitted straight onto the host's link, which paces them at line rate.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.tcp.connection import AckEvent, TcpConfig, TcpConnection
from repro.tcp.socket import TcpSocket


class ClientHost:
    """An endpoint host with demultiplexing, listening, and active opens."""

    def __init__(self, sim: Simulator, ip: int, name: str = "client", iss_base: int = 1000):
        self.sim = sim
        self.ip = ip
        self.name = name
        self.tx_link: Optional[Link] = None
        #: Shared per-rig :class:`~repro.buffers.slab.PacketSlab` (set by the
        #: receiver machine's ``add_client``); None disables recycling.
        self.packet_slab = None
        self.connections: Dict[FlowKey, TcpConnection] = {}
        self.listeners: Dict[int, Callable[[TcpConnection], TcpSocket]] = {}
        self._next_port = 10000
        self._iss = iss_base
        #: Shared by every connection this host opens or accepts.
        self._clock = lambda: sim.now
        self._tcp_config = TcpConfig()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_tx(self, link: Link) -> None:
        self.tx_link = link

    def allocate_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def _next_iss(self) -> int:
        self._iss = (self._iss + 64000) & 0xFFFFFFFF
        return self._iss

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(
        self,
        dst_ip: int,
        dst_port: int,
        config: Optional[TcpConfig] = None,
        src_port: Optional[int] = None,
        app: Callable[[TcpConnection], TcpSocket] = TcpSocket,
    ) -> TcpSocket:
        """Active open toward (dst_ip, dst_port); returns the app socket,
        ``app(conn)`` (a plain :class:`TcpSocket` unless a subclass that
        overrides its callbacks is given)."""
        key = FlowKey(self.ip, src_port or self.allocate_port(), dst_ip, dst_port)
        conn = TcpConnection(
            key=key,
            config=config or self._tcp_config,
            clock=self._clock,
            timers=self.sim,
            transport=self,
            iss=self._next_iss(),
        )
        self.connections[key] = conn
        if self.packet_slab is not None:
            conn._template.slab = self.packet_slab
        sock = app(conn)
        conn.connect()
        return sock

    def listen(self, port: int, on_accept: Callable[[TcpConnection], TcpSocket]) -> None:
        """Register a passive-open factory for ``port``.

        ``on_accept(conn)`` must create and return the application socket
        for the new connection.
        """
        self.listeners[port] = on_accept

    # ------------------------------------------------------------------
    # packet I/O
    # ------------------------------------------------------------------
    def rx(self, pkt: Packet) -> None:
        """Link sink: demultiplex an inbound packet to its connection."""
        ip = pkt.ip
        tcp = pkt.tcp
        if ip.dst_ip != self.ip:
            return
        if pkt.corrupted:
            return  # checksum verification fails; drop before TCP sees it
        # Plain tuples hash/compare equal to FlowKey (a NamedTuple), so the
        # hot-path lookup skips constructing one.
        conn = self.connections.get((ip.dst_ip, tcp.dst_port, ip.src_ip, tcp.src_port))
        if conn is None:
            key = FlowKey(ip.dst_ip, tcp.dst_port, ip.src_ip, tcp.src_port)
            factory = self.listeners.get(pkt.tcp.dst_port)
            if factory is None:
                return  # no listener: silently drop (no RST generation)
            conn = TcpConnection(
                key=key,
                config=self._tcp_config,
                clock=self._clock,
                timers=self.sim,
                transport=self,
                iss=self._next_iss(),
            )
            conn.passive_open()
            self.connections[key] = conn
            if self.packet_slab is not None:
                conn._template.slab = self.packet_slab
            factory(conn)
        conn.on_segment(pkt)
        # The segment is dead: TCP keeps only scalars/tuples from it, and
        # cost-free hosts have no tracer reading it afterwards.  Recycle
        # (length-only packets only; release() refuses materialized ones).
        if self.packet_slab is not None:
            self.packet_slab.release(pkt)

    # ------------------------------------------------------------------
    # transport interface used by TcpConnection
    # ------------------------------------------------------------------
    def send_packet(self, conn: TcpConnection, pkt: Packet) -> None:
        if self.tx_link is None:
            raise RuntimeError(f"{self.name}: no tx link attached")
        self.tx_link.send(pkt)

    def send_acks(self, conn: TcpConnection, event: AckEvent) -> None:
        """Cost-free hosts emit one real ACK packet per batch entry."""
        if self.tx_link is None:
            raise RuntimeError(f"{self.name}: no tx link attached")
        for ack in event.acks:
            self.tx_link.send(conn.build_ack_packet(ack, event))
