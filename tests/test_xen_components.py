"""Unit tests for individual Xen pipeline components."""

import dataclasses

import pytest

from repro.buffers.pool import BufferPool
from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.cpu.view import CpuView
from repro.host.configs import xen_config
from repro.net.addresses import ip_from_str
from repro.net.packet import make_data_segment
from repro.sim.engine import Simulator
from repro.xen.costs import XenCostModel
from repro.xen.driver_domain import DriverDomain

CLIENT = ip_from_str("10.0.1.1")
SERVER = ip_from_str("10.0.0.1")


class _GuestKernelStub:
    """Records delivered skbs; charges nothing."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.delivered = []
        self.drains = 0

    def deliver_host_skb(self, skb):
        self.delivered.append(skb)
        skb.free()

    def app_drain(self):
        self.drains += 1


def make_dd(sim):
    cpu = Cpu(sim)
    dd_view = CpuView(cpu, name="dd")
    guest_pool = BufferPool("guest")
    guest = _GuestKernelStub(CpuView(cpu, name="guest"))
    dd = DriverDomain(dd_view, XenCostModel(), guest, guest_pool)
    return dd, cpu, guest, guest_pool


def _skb(pool, n_frags=1):
    pkt = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=0, ack=0,
                            payload_len=1448, timestamp=(1, 0))
    pkt.csum_verified = True
    skb = pool.alloc(pkt)
    for i in range(1, n_frags):
        skb.chain(make_data_segment(CLIENT, SERVER, 10000, 5001,
                                    seq=i * 1448, ack=0, payload_len=1448,
                                    timestamp=(1, 0)))
    return skb


def test_forward_batches_until_flush(sim):
    dd, cpu, guest, guest_pool = make_dd(sim)
    dd_pool = BufferPool("dd")
    dd.forward_rx(_skb(dd_pool))
    dd.forward_rx(_skb(dd_pool))
    assert guest.delivered == []  # held in the I/O channel batch
    dd.flush_to_guest()
    assert len(guest.delivered) == 2
    assert guest.drains == 1
    dd_pool.assert_balanced()
    guest_pool.assert_balanced()


def test_flush_empty_batch_is_noop(sim):
    dd, cpu, guest, _ = make_dd(sim)
    busy = cpu.busy_cycles
    dd.flush_to_guest()
    assert cpu.busy_cycles == busy
    assert guest.drains == 0


def test_netback_cost_scales_with_fragments(sim):
    dd, cpu, guest, _ = make_dd(sim)
    dd_pool = BufferPool("dd")
    dd.forward_rx(_skb(dd_pool, n_frags=1))
    single = cpu.profiler.cycles[Category.NETBACK]
    dd.forward_rx(_skb(dd_pool, n_frags=5))
    five = cpu.profiler.cycles[Category.NETBACK] - single
    xc = dd.xen_costs
    assert single == pytest.approx(xc.netback_rx_base + xc.netback_per_frag)
    assert five == pytest.approx(xc.netback_rx_base + 5 * xc.netback_per_frag)
    dd.flush_to_guest()
    dd_pool.assert_balanced()


def test_grant_copy_charged_per_byte_with_multiplier(sim):
    dd, cpu, guest, _ = make_dd(sim)
    dd_pool = BufferPool("dd")
    dd.forward_rx(_skb(dd_pool, n_frags=2))
    dd.flush_to_guest()
    per_byte = cpu.profiler.cycles[Category.PER_BYTE]
    expected = dd.cpu.costs.copy_cycles(2 * 1448) * dd.xen_costs.grant_copy_multiplier
    assert per_byte == pytest.approx(expected)


def test_event_channel_cost_per_batch_not_per_packet(sim):
    dd, cpu, guest, _ = make_dd(sim)
    dd_pool = BufferPool("dd")
    for _ in range(4):
        dd.forward_rx(_skb(dd_pool))
    dd.flush_to_guest()
    xen_cycles = cpu.profiler.cycles[Category.XEN]
    xc = dd.xen_costs
    expected = (
        xc.xen_event_per_batch + xc.xen_domain_switch_per_batch
        + 4 * (xc.xen_grant_per_packet + xc.xen_grant_per_frag)
    )
    assert xen_cycles == pytest.approx(expected)


def test_reparenting_preserves_fragment_metadata(sim):
    dd, cpu, guest, guest_pool = make_dd(sim)
    dd_pool = BufferPool("dd")
    skb = _skb(dd_pool, n_frags=3)
    skb.frag_acks = [1, 2, 3]
    skb.frag_end_seqs = [10, 20, 30]
    skb.frag_windows = [100, 200, 300]
    dd.forward_rx(skb)
    dd.flush_to_guest()
    guest_skb = guest.delivered[0]
    assert guest_skb.frag_acks == [1, 2, 3]
    assert guest_skb.frag_end_seqs == [10, 20, 30]
    assert guest_skb.nr_segments == 3
    dd_pool.assert_balanced()


def test_xen_cost_model_guest_scale_excludes_copies():
    scale = XenCostModel().guest_scale
    assert scale[Category.PER_BYTE] == 1.0
    assert scale[Category.RX] > 1.0
    assert scale[Category.BUFFER] > 1.0
