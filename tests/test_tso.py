"""TSO driver/stack unit tests."""

import dataclasses

import pytest

from repro.core.config import OptimizationConfig
from repro.host.client import ClientHost
from repro.host.machine import ReceiverMachine
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource

from tests.conftest import fast_config

SERVER = ip_from_str("10.0.0.1")


def _tso_rig(sim, tso=True, materialize=True):
    cfg = dataclasses.replace(fast_config(n_nics=1), tso=tso)
    machine = ReceiverMachine(sim, cfg, OptimizationConfig.baseline(), ip=SERVER)
    received = []

    def on_accept(sock):
        sock.conn.attach_source(InfiniteSource(materialize=materialize, seed=3, limit_bytes=100_000))
        sock.conn.app_wrote()

    if materialize:
        machine.kernel.tcp_overrides["materialize_payload"] = True
    machine.listen(5001, on_accept)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    machine.add_client(client)
    sock = client.connect(SERVER, 5001, config=TcpConfig(materialize_payload=True, rcv_buf=1 << 20, window_scale=5))
    return machine, sock


def test_tso_split_segments_fit_mtu_and_preserve_bytes(sim):
    machine, sock = _tso_rig(sim)
    sim.run(until=2.0)
    assert sock.bytes_received == 100_000
    assert sock.payload_bytes() == InfiniteSource.pattern(0, 100_000, seed=3)


def test_tso_wire_packets_are_mss_sized(sim):
    machine, sock = _tso_rig(sim)
    from repro.sim.capture import PacketCapture

    cap = PacketCapture(sim)
    cap.tap_link(machine.nics[0].tx_link)
    sim.run(until=2.0)
    sizes = {rec.packet.payload_len for rec in cap.data_packets()}
    assert max(sizes) <= machine.config.mss


def test_oversized_send_without_tso_raises(sim):
    """A >MSS segment reaching a non-TSO driver is a stack bug, not silent."""
    from repro.driver.e1000 import E1000Driver
    from repro.net.packet import make_data_segment

    machine, _ = _tso_rig(sim, tso=False)
    driver = machine.drivers[0]
    big = make_data_segment(SERVER, ip_from_str("10.0.1.1"), 5001, 10000,
                            seq=0, ack=0, payload_len=5000)
    with pytest.raises(RuntimeError):
        driver.tx(big)


def test_tso_reduces_server_tx_cycles(sim):
    machine_tso, sock_tso = _tso_rig(sim, tso=True)
    sim.run(until=2.0)
    sim2 = Simulator()
    machine_plain, sock_plain = _tso_rig(sim2, tso=False)
    sim2.run(until=2.0)
    assert sock_tso.bytes_received == sock_plain.bytes_received == 100_000
    assert machine_tso.cpu.busy_cycles < 0.8 * machine_plain.cpu.busy_cycles
