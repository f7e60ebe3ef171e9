"""Test harnesses: directly-wired TCP connection pairs with fault injection."""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional

from repro.net.addresses import ip_from_str
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.tcp.connection import AckEvent, TcpConfig, TcpConnection
from repro.tcp.socket import TcpSocket

IP_A = ip_from_str("10.0.0.1")
IP_B = ip_from_str("10.0.0.2")


class DirectTransport:
    """Delivers packets straight to the peer connection after a fixed delay.

    ``filter_fn(pkt) -> bool`` decides delivery (False = drop); ``sent``
    records every packet for inspection.
    """

    def __init__(self, sim: Simulator, delay: float = 20e-6):
        self.sim = sim
        self.delay = delay
        self.peer: Optional[TcpConnection] = None
        self.sent: List[Packet] = []
        self.filter_fn: Optional[Callable[[Packet], bool]] = None

    def send_packet(self, conn: TcpConnection, pkt: Packet) -> None:
        self.sent.append(pkt)
        if self.filter_fn is not None and not self.filter_fn(pkt):
            return
        self.sim.schedule(self.delay, self.peer.on_segment, pkt)

    def send_acks(self, conn: TcpConnection, event: AckEvent) -> None:
        for ack in event.acks:
            self.send_packet(conn, conn.build_ack_packet(ack, event))


def make_pair(sim: Simulator, config_a: Optional[TcpConfig] = None, config_b: Optional[TcpConfig] = None,
              handshake: bool = True):
    """Two connected endpoints (A actively opened to B) with app sockets."""
    config_a = config_a or TcpConfig(materialize_payload=True)
    config_b = config_b or TcpConfig(materialize_payload=True)
    ta, tb = DirectTransport(sim), DirectTransport(sim)
    key_a = FlowKey(IP_A, 10000, IP_B, 80)
    conn_a = TcpConnection(key_a, config_a, lambda: sim.now, sim, ta, iss=1000, name="A")
    conn_b = TcpConnection(key_a.reverse(), config_b, lambda: sim.now, sim, tb, iss=9000, name="B")
    ta.peer, tb.peer = conn_b, conn_a
    sock_a, sock_b = TcpSocket(conn_a), TcpSocket(conn_b)
    conn_b.passive_open()
    conn_a.connect()
    if handshake:
        sim.run(until=sim.now + 0.01)
        assert sock_a.established
    return conn_a, conn_b, sock_a, sock_b, ta, tb


class WireDigest:
    """One sha256 over every frame a rig's links deliver, in delivery order.

    Taps each link the way ``PacketCapture.tap_link`` does, by wrapping its
    sink: the machine's inbound ``links`` and every NIC's ``tx_link``.  Per
    frame it feeds the link name, ``sim.now``, ports, flags, seq, ack,
    window, payload length, timestamp pair and SACK blocks, read before the
    receiver can mutate or recycle the frame.
    """

    def __init__(self, machine):
        self._sha = hashlib.sha256()
        self.frames = 0
        sim = machine.sim
        for link in [*machine.links, *(nic.tx_link for nic in machine.nics)]:
            self._tap(sim, link)

    def _tap(self, sim: Simulator, link) -> None:
        downstream = link.sink
        name = link.name
        update = self._sha.update

        def tapped(pkt: Packet) -> None:
            tcp = pkt.tcp
            opts = tcp.options
            update(repr((
                name, sim.now, tcp.src_port, tcp.dst_port, int(tcp.flags), tcp.seq,
                tcp.ack, tcp.window, pkt.payload_len, opts.timestamp, opts.sack_blocks,
            )).encode())
            self.frames += 1
            downstream(pkt)

        link.sink = tapped

    def hexdigest(self) -> str:
        return self._sha.hexdigest()
