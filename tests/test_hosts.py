"""Client host, machine assembly, and kernel-timer tests."""

import pytest

from repro.core.config import OptimizationConfig
from repro.cpu.cpu import Cpu
from repro.host.client import ClientHost
from repro.host.kernel import Kernel, KernelTimers
from repro.host.machine import ReceiverMachine
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.tcp.socket import TcpSocket

from tests.conftest import fast_config

SERVER = ip_from_str("10.0.0.1")


# ---------------------------------------------------------------- ClientHost
def test_client_hosts_talk_over_links(sim):
    a = ClientHost(sim, ip_from_str("10.0.0.10"), "a")
    b = ClientHost(sim, ip_from_str("10.0.0.20"), "b")
    ab = Link(sim, 1e9, 10e-6, sink=b.rx)
    ba = Link(sim, 1e9, 10e-6, sink=a.rx)
    a.attach_tx(ab)
    b.attach_tx(ba)
    accepted = []
    b.listen(80, lambda conn: accepted.append(TcpSocket(conn)) or accepted[-1])
    sock = a.connect(b.ip, 80)
    sim.run(until=0.1)
    assert sock.established
    assert len(accepted) == 1


def test_client_ephemeral_ports_unique(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    ports = {host.allocate_port() for _ in range(100)}
    assert len(ports) == 100


def test_client_ignores_foreign_destination(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    from repro.net.packet import make_data_segment

    pkt = make_data_segment(ip_from_str("1.1.1.1"), ip_from_str("9.9.9.9"), 1, 2, seq=0, ack=0)
    host.rx(pkt)  # must not raise or create state
    assert not host.connections


def test_client_drops_packets_for_unlistened_port(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    from repro.net.packet import make_data_segment
    from repro.net.tcp_header import TcpFlags

    syn = make_data_segment(ip_from_str("1.1.1.1"), host.ip, 5, 999, seq=0, ack=0, flags=TcpFlags.SYN)
    host.rx(syn)
    assert not host.connections


def test_client_send_without_link_raises(sim):
    host = ClientHost(sim, ip_from_str("10.0.0.10"))
    with pytest.raises(RuntimeError):
        host.connect(ip_from_str("10.0.0.20"), 80)


# ---------------------------------------------------------------- machine assembly
def test_machine_wires_one_nic_per_client(sim):
    machine = ReceiverMachine(sim, fast_config(n_nics=3), OptimizationConfig.baseline(), ip=SERVER)
    for i in range(3):
        machine.add_client(ClientHost(sim, ip_from_str(f"10.0.1.{i + 1}")))
    assert len(machine.nics) == 3
    assert len(machine.drivers) == 3
    assert len(machine.kernel.routes) == 3


def test_machine_aggregator_only_when_enabled(sim):
    base = ReceiverMachine(sim, fast_config(), OptimizationConfig.baseline(), ip=SERVER)
    assert base.kernel.aggregator is None
    opt = ReceiverMachine(sim, fast_config(), OptimizationConfig.optimized(), ip=SERVER)
    assert opt.kernel.aggregator is not None


def test_machine_routes_acks_back_through_arrival_nic(sim):
    machine = ReceiverMachine(sim, fast_config(n_nics=2), OptimizationConfig.baseline(), ip=SERVER)
    machine.listen(5001)
    clients = [ClientHost(sim, ip_from_str(f"10.0.1.{i + 1}")) for i in range(2)]
    for c in clients:
        machine.add_client(c)
    socks = [c.connect(SERVER, 5001) for c in clients]
    for s in socks:
        s.send(b"x" * 5000)
    sim.run(until=0.2)
    # Each client's traffic produced tx on its own NIC only.
    assert machine.nics[0].stats.tx_frames > 0
    assert machine.nics[1].stats.tx_frames > 0


def test_kernel_send_without_route_raises(sim):
    machine = ReceiverMachine(sim, fast_config(), OptimizationConfig.baseline(), ip=SERVER)
    from repro.net.flow import FlowKey
    from repro.tcp.connection import TcpConnection

    conn = TcpConnection(
        FlowKey(SERVER, 5001, ip_from_str("10.9.9.9"), 2),
        machine.kernel.default_tcp_config(),
        lambda: sim.now, machine.kernel.timers, machine.kernel, iss=7,
    )
    from repro.tcp.connection import AckEvent

    pkt = conn.build_ack_packet(1, AckEvent(acks=[1], window=100, timestamp=None))
    with pytest.raises(RuntimeError):
        machine.kernel.send_packet(conn, pkt)


# ---------------------------------------------------------------- kernel timers
def _kernel(sim, *cpus):
    return Kernel(sim, cpus, fast_config(), OptimizationConfig.baseline())


def test_kernel_timer_runs_as_cpu_task(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    timers = KernelTimers(sim, _kernel(sim, cpu))
    fired = []
    # Occupy the CPU so the timer callback is delayed behind packet work.
    cpu.submit(lambda: cpu.consume(5000, "misc"))
    timers.schedule(1e-6, lambda: fired.append(sim.now))
    sim.run(until=1e-3)
    assert fired and fired[0] == pytest.approx(5e-6)


def test_kernel_timer_cancel_before_fire(sim):
    cpu = Cpu(sim)
    timers = KernelTimers(sim, _kernel(sim, cpu))
    fired = []
    handle = timers.schedule(1e-3, lambda: fired.append(1))
    handle.cancel()
    sim.run(until=0.01)
    assert not fired


def test_kernel_timer_cancel_between_fire_and_run(sim):
    """Cancelling after the sim event fired but before the CPU task ran
    must still suppress the callback."""
    cpu = Cpu(sim, freq_hz=1e9)
    timers = KernelTimers(sim, _kernel(sim, cpu))
    fired = []
    cpu.submit(lambda: cpu.consume(10000, "misc"))  # cpu busy 10 us
    handle = timers.schedule(1e-6, lambda: fired.append(1))
    sim.schedule(2e-6, handle.cancel)  # after fire, before task start
    sim.run(until=0.01)
    assert not fired


def _spy_submits(cpu, log):
    submit = cpu.submit

    def spy(fn, *args):
        log.append(cpu)
        submit(fn, *args)

    cpu.submit = spy


def test_kernel_timer_fires_on_the_cpu_that_armed_it(sim):
    cpus = [Cpu(sim, name="cpu0"), Cpu(sim, name="cpu1")]
    kernel = _kernel(sim, *cpus)
    submitted, seen = [], []
    for cpu in cpus:
        _spy_submits(cpu, submitted)
    prev = kernel.enter_cpu(1)
    kernel.timers.schedule(1e-3, lambda: seen.append(kernel.cpu))
    kernel.enter_cpu(prev)
    sim.run(until=0.01)
    assert submitted == [cpus[1]]
    assert seen == [cpus[1]]
    # The timer task restored the CPU that was current before it ran.
    assert kernel.cpu is cpus[0] and kernel._current_idx == 0


def test_postponed_kernel_timer_moves_to_the_rearming_cpu(sim):
    cpus = [Cpu(sim, name="cpu0"), Cpu(sim, name="cpu1")]
    kernel = _kernel(sim, *cpus)
    submitted, seen = [], []
    for cpu in cpus:
        _spy_submits(cpu, submitted)
    kernel.enter_cpu(1)
    handle = kernel.timers.schedule(1e-3, lambda: seen.append(kernel.cpu))

    def rearm_on_cpu0():
        prev = kernel.enter_cpu(0)
        assert handle.postpone(1e-3)
        kernel.enter_cpu(prev)

    sim.schedule(0.5e-3, rearm_on_cpu0)
    sim.run(until=0.01)
    assert submitted == [cpus[0]]
    assert seen == [cpus[0]]
    assert kernel.cpu is cpus[1]


def test_tcp_overrides_applied_to_accepted_connections(sim):
    machine = ReceiverMachine(sim, fast_config(n_nics=1), OptimizationConfig.baseline(), ip=SERVER)
    machine.kernel.tcp_overrides = {"rcv_buf": 1 << 20, "window_scale": 6}
    machine.listen(5001)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    machine.add_client(client)
    client.connect(SERVER, 5001)
    sim.run(until=0.05)
    conn = next(iter(machine.kernel.connections.values()))
    assert conn.config.rcv_buf == 1 << 20
    assert conn.config.window_scale == 6
    # Accepted connections share one config, so an override set between
    # accepts applies to the later connection only.
    machine.kernel.tcp_overrides["rcv_buf"] = 1 << 21
    client.connect(SERVER, 5001)
    sim.run(until=0.1)
    first, second = machine.kernel.connections.values()
    assert (first.config.rcv_buf, second.config.rcv_buf) == (1 << 20, 1 << 21)
    assert second.config.window_scale == 6
