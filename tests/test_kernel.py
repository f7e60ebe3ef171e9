"""Costed kernel tests: delivery, app drain, transmit paths, ACK offload hook."""

import pytest

from repro.buffers.pool import BufferPool
from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.host.configs import linux_up_config
from repro.host.kernel import Kernel, RECV_CHUNK
from repro.net.addresses import ip_from_str
from repro.net.packet import make_data_segment
from repro.sim.engine import Simulator

from tests.conftest import fast_config

CLIENT = ip_from_str("10.0.1.1")
SERVER = ip_from_str("10.0.0.1")
MSS = 1448


class FakeDriver:
    """Records transmissions instead of touching a NIC."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.packets = []
        self.templates = []

    def tx(self, pkt, pure_ack=False):
        self.cpu.consume(self.cpu.costs.driver_tx_per_packet, Category.DRIVER)
        if pure_ack:
            self.cpu.profiler.count_ack_sent()
        self.packets.append(pkt)

    def tx_template(self, skb):
        self.cpu.consume(self.cpu.costs.driver_tx_per_packet, Category.DRIVER)
        self.templates.append(skb)
        from repro.core.ack_offload import expand_template

        for pkt in expand_template(skb):
            self.cpu.consume(self.cpu.costs.ack_expand_per_ack, Category.DRIVER)
            self.cpu.profiler.count_ack_sent()
            self.packets.append(pkt)
        skb.free()
        self.cpu.consume(self.cpu.costs.skb_free, Category.BUFFER)


def make_kernel(sim, opt):
    cpu = Cpu(sim)
    kernel = Kernel(sim, [cpu], fast_config(), opt)
    kernel.set_ip(SERVER)
    driver = FakeDriver(cpu)
    kernel.register_route(CLIENT, [driver])
    kernel.listen(5001)
    return kernel, cpu, driver


def feed_handshake(sim, kernel):
    """Deliver a SYN so the kernel creates a server-side connection."""
    from repro.net.tcp_header import TcpFlags, TcpOptions

    syn = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=999, ack=0,
                            flags=TcpFlags.SYN)
    syn.tcp.options = TcpOptions(mss=MSS, window_scale=2, sack_permitted=True, timestamp=(1, 0))
    skb = kernel.pool.alloc(syn)
    kernel.deliver_host_skb(skb)
    conn = next(iter(kernel.connections.values()))
    # Complete the handshake with the client's final ACK.
    ack = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=1000,
                            ack=conn.snd_nxt, payload_len=0, timestamp=(1, 0))
    kernel.deliver_host_skb(kernel.pool.alloc(ack))
    return conn


def data_skb(kernel, seq, length=MSS, n_frags=1, ack=None):
    pkt = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=seq,
                            ack=ack if ack is not None else 0,
                            payload_len=length, timestamp=(2, 1))
    pkt.csum_verified = True
    skb = kernel.pool.alloc(pkt)
    if n_frags > 1:
        for i in range(1, n_frags):
            frag = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=seq + i * length,
                                     ack=pkt.tcp.ack, payload_len=length, timestamp=(2, 1))
            skb.frags.append(frag)
        skb.frag_end_seqs = [seq + (i + 1) * length for i in range(n_frags)]
        skb.frag_acks = [pkt.tcp.ack] * n_frags
        skb.frag_windows = [65535] * n_frags
    return skb


def test_syn_creates_connection_and_socket(sim):
    kernel, cpu, driver = make_kernel(sim, OptimizationConfig.baseline())
    conn = feed_handshake(sim, kernel)
    assert conn.state.value == "ESTABLISHED"
    assert len(kernel.sockets) == 1
    # SYN-ACK went out through the costed tx path.
    assert len(driver.packets) == 1


def test_unknown_port_packet_dropped_cleanly(sim):
    kernel, cpu, _ = make_kernel(sim, OptimizationConfig.baseline())
    pkt = make_data_segment(CLIENT, SERVER, 10000, 9999, seq=0, ack=0, payload_len=10)
    kernel.deliver_host_skb(kernel.pool.alloc(pkt))
    assert not kernel.connections
    kernel.pool.assert_balanced()


def test_delivery_charges_stack_categories(sim):
    kernel, cpu, _ = make_kernel(sim, OptimizationConfig.baseline())
    feed_handshake(sim, kernel)
    before = dict(cpu.profiler.cycles)
    kernel.softirq_baseline([data_skb(kernel, 1000)])
    delta = {k: cpu.profiler.cycles.get(k, 0) - before.get(k, 0) for k in cpu.profiler.cycles}
    costs = cpu.costs
    assert delta[Category.RX] >= costs.ip_rx + costs.tcp_rx
    assert delta[Category.NON_PROTO] >= costs.non_proto_rx
    assert delta[Category.BUFFER] >= costs.skb_free
    # App drain: wakeup + syscall + copy.
    assert delta[Category.MISC] >= costs.wakeup + costs.syscall
    assert delta[Category.PER_BYTE] >= costs.copy_cycles(MSS)


def test_app_drain_syscall_count_scales_with_bytes(sim):
    kernel, cpu, _ = make_kernel(sim, OptimizationConfig.baseline())
    feed_handshake(sim, kernel)
    before = cpu.profiler.cycles.get(Category.MISC, 0)
    # 3 segments in one softirq -> one wakeup, ceil(bytes/16K) syscalls.
    skbs = [data_skb(kernel, 1000 + i * MSS) for i in range(3)]
    kernel.softirq_baseline(skbs)
    misc = cpu.profiler.cycles[Category.MISC] - before
    import math

    expected_syscalls = max(1, math.ceil(3 * MSS / RECV_CHUNK))
    assert misc >= cpu.costs.wakeup + expected_syscalls * cpu.costs.syscall


def test_aggregated_skb_passes_fragment_metadata(sim):
    kernel, cpu, _ = make_kernel(sim, OptimizationConfig.optimized())
    conn = feed_handshake(sim, kernel)
    skb = data_skb(kernel, 1000, n_frags=6)
    kernel.softirq_baseline([skb])
    assert conn.rcv_nxt == 1000 + 6 * MSS
    assert cpu.profiler.host_packets >= 1
    assert conn.stats.segs_in >= 6


def test_software_checksum_charged_without_offload(sim):
    kernel, cpu, _ = make_kernel(sim, OptimizationConfig.baseline())
    feed_handshake(sim, kernel)
    skb = data_skb(kernel, 1000)
    skb.csum_verified = False
    skb.head.csum_verified = False
    before = cpu.profiler.cycles.get(Category.PER_BYTE, 0)
    kernel.softirq_baseline([skb])
    per_byte = cpu.profiler.cycles[Category.PER_BYTE] - before
    # checksum + copy, both over MSS bytes.
    assert per_byte >= cpu.costs.checksum_cycles(MSS) + cpu.costs.copy_cycles(MSS)


def test_send_acks_baseline_one_packet_per_ack(sim):
    kernel, cpu, driver = make_kernel(sim, OptimizationConfig.baseline())
    conn = feed_handshake(sim, kernel)
    start_acks = cpu.profiler.acks_sent
    kernel.softirq_baseline([data_skb(kernel, 1000), data_skb(kernel, 1000 + MSS),
                             data_skb(kernel, 1000 + 2 * MSS), data_skb(kernel, 1000 + 3 * MSS)])
    assert cpu.profiler.acks_sent - start_acks == 2  # every second segment
    assert not driver.templates


def test_send_acks_offload_builds_template(sim):
    kernel, cpu, driver = make_kernel(sim, OptimizationConfig.optimized())
    conn = feed_handshake(sim, kernel)
    start_acks = cpu.profiler.acks_sent
    kernel.softirq_baseline([data_skb(kernel, 1000, n_frags=8)])
    # 8 fragments -> 4 consecutive ACKs -> ONE template, expanded at driver.
    assert len(driver.templates) == 1
    assert cpu.profiler.acks_sent - start_acks == 4
    wire_acks = [p for p in driver.packets if p.is_pure_ack]
    assert [p.tcp.ack for p in wire_acks] == [1000 + 2 * MSS, 1000 + 4 * MSS,
                                              1000 + 6 * MSS, 1000 + 8 * MSS]


def test_single_ack_not_templated_even_with_offload(sim):
    kernel, cpu, driver = make_kernel(sim, OptimizationConfig.optimized())
    feed_handshake(sim, kernel)
    kernel.softirq_baseline([data_skb(kernel, 1000, n_frags=2)])
    assert not driver.templates  # one ACK: full path, no template
    assert cpu.profiler.acks_sent == 1


def test_pool_balanced_after_traffic(sim):
    kernel, cpu, driver = make_kernel(sim, OptimizationConfig.optimized())
    feed_handshake(sim, kernel)
    for i in range(5):
        kernel.softirq_baseline([data_skb(kernel, 1000 + i * 4 * MSS, n_frags=4)])
    kernel.pool.assert_balanced()
