"""Xen pipeline tests: category accounting, domain crossing, integrity."""

import dataclasses

import pytest

from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.host.client import ClientHost
from repro.host.configs import xen_config
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource
from repro.xen.machine import XenReceiverMachine

SERVER = ip_from_str("10.0.0.1")


def fast_xen_config():
    return dataclasses.replace(xen_config(), n_nics=1)


def run_xen_transfer(opt, nbytes=150_000, until=10.0):
    sim = Simulator()
    machine = XenReceiverMachine(sim, fast_xen_config(), opt, ip=SERVER)
    machine.listen(5001)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    machine.add_client(client)
    sock = client.connect(SERVER, 5001, config=TcpConfig(materialize_payload=True))
    sock.conn.attach_source(InfiniteSource(materialize=True, seed=4, limit_bytes=nbytes))
    sim.run(until=until)
    server_sock = next(iter(machine.kernel.sockets.values()))
    return machine, server_sock


def test_native_config_rejected():
    from repro.host.configs import linux_up_config

    with pytest.raises(ValueError):
        XenReceiverMachine(Simulator(), linux_up_config(), OptimizationConfig.baseline())


@pytest.mark.parametrize("knob,config,opt", [
    ("nic_lro", dataclasses.replace(fast_xen_config(), nic_lro=True),
     OptimizationConfig.baseline()),
    ("repair", fast_xen_config(), OptimizationConfig.resilient(repair=True)),
], ids=["nic_lro", "repair"])
def test_unmodelled_knob_rejected(knob, config, opt):
    """The Xen NICs have no LRO engine and its drivers no repair stage:
    asking for either must fail loudly, not run without it."""
    with pytest.raises(ValueError, match=knob):
        XenReceiverMachine(Simulator(), config, opt)


def test_multi_queue_xen_rig_rejected():
    from repro.workloads.stream import build_stream_rig

    with pytest.raises(ValueError, match="queues=2"):
        build_stream_rig(fast_xen_config(), OptimizationConfig.baseline(), queues=2)


def test_many_connection_rig_batches_xen_links():
    """The many-connection workload's link batching reaches the Xen rig's
    links in both directions, as it does the native rig's."""
    from repro.workloads.many import ManyConnWorkload, build_many_connection_rig

    wl = ManyConnWorkload(n_connections=4)
    _sim, machine, _clients, _driver = build_many_connection_rig(
        fast_xen_config(), OptimizationConfig.baseline(), wl
    )
    links = machine.links + [nic.tx_link for nic in machine.nics]
    assert wl.batch_window_s > 0
    assert [link.batch_window_s for link in links] == [wl.batch_window_s] * 2


def test_xen_transfer_integrity_baseline():
    machine, sock = run_xen_transfer(OptimizationConfig.baseline())
    assert sock.bytes_received == 150_000
    machine.dd_pool.assert_balanced()
    machine.guest_pool.assert_balanced()


def test_xen_transfer_integrity_optimized():
    machine, sock = run_xen_transfer(OptimizationConfig.optimized())
    assert sock.bytes_received == 150_000
    assert machine.profiler.aggregation_degree > 2
    machine.dd_pool.assert_balanced()
    machine.guest_pool.assert_balanced()


def test_xen_categories_populated():
    machine, _ = run_xen_transfer(OptimizationConfig.baseline())
    cycles = machine.profiler.cycles
    for cat in (Category.NETBACK, Category.NETFRONT, Category.XEN,
                Category.TCP_RX, Category.TCP_TX, Category.NON_PROTO,
                Category.PER_BYTE, Category.DRIVER, Category.BUFFER):
        assert cycles.get(cat, 0) > 0, cat
    # Guest work was relabelled: no bare rx/tx categories on a Xen machine.
    assert Category.RX not in cycles
    assert Category.TX not in cycles


def test_two_copies_cost_more_per_byte_than_native():
    """Xen pays the grant copy AND the guest copy-to-user (§2.4)."""
    machine, _ = run_xen_transfer(OptimizationConfig.baseline())
    per_byte = machine.profiler.cycles[Category.PER_BYTE]
    n = machine.profiler.network_packets
    native_single_copy = machine.config.costs.copy_cycles(1448)
    assert per_byte / n > 2 * native_single_copy  # two copies, one inflated


def test_guest_scale_inflates_guest_kernel_work():
    machine, _ = run_xen_transfer(OptimizationConfig.baseline())
    n = machine.profiler.network_packets
    tcp_rx = machine.profiler.cycles[Category.TCP_RX] / n
    native = machine.config.costs.ip_rx + machine.config.costs.tcp_rx
    assert tcp_rx == pytest.approx(native * 1.5, rel=0.15)


def test_aggregation_happens_in_driver_domain():
    """The aggregator must sit before the bridge: bridge (non-proto) cost
    scales with HOST packets, not network packets (Figure 10)."""
    base, _ = run_xen_transfer(OptimizationConfig.baseline())
    opt, _ = run_xen_transfer(OptimizationConfig.optimized())
    n_base = base.profiler.network_packets
    n_opt = opt.profiler.network_packets
    bridge_base = base.profiler.cycles[Category.NON_PROTO] / n_base
    bridge_opt = opt.profiler.cycles[Category.NON_PROTO] / n_opt
    assert bridge_opt < bridge_base / 2


def test_netfront_netback_reduced_less_than_bridge():
    """§5.1: netback/netfront pay per-fragment costs, so they shrink less."""
    base, _ = run_xen_transfer(OptimizationConfig.baseline())
    opt, _ = run_xen_transfer(OptimizationConfig.optimized())

    def per_pkt(m, cat):
        return m.profiler.cycles[cat] / m.profiler.network_packets

    bridge_reduction = per_pkt(base, Category.NON_PROTO) / per_pkt(opt, Category.NON_PROTO)
    netback_reduction = per_pkt(base, Category.NETBACK) / per_pkt(opt, Category.NETBACK)
    netfront_reduction = per_pkt(base, Category.NETFRONT) / per_pkt(opt, Category.NETFRONT)
    assert bridge_reduction > netback_reduction
    assert bridge_reduction > netfront_reduction


def test_template_ack_crosses_pipeline_once():
    machine, _ = run_xen_transfer(OptimizationConfig.optimized())
    tx_path = machine.tx_paths[0]
    driver = machine.drivers[0]
    assert driver.stats.tx_templates > 0
    assert driver.stats.tx_expanded_acks > driver.stats.tx_templates
    # Each template crossed netfront/netback once (plus handshake/ACK singles).
    assert tx_path.templates == driver.stats.tx_templates


def test_xen_skb_reparenting_balances_both_pools():
    machine, _ = run_xen_transfer(OptimizationConfig.baseline())
    assert machine.dd_pool.stats.allocs > 0
    assert machine.guest_pool.stats.allocs > 0
    machine.dd_pool.assert_balanced()
    machine.guest_pool.assert_balanced()
