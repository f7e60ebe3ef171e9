"""Memory hierarchy, NUMA topology, and zero-copy receive path."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.sanitizer import InvariantViolation, SimSanitizer
from repro.core.config import OptimizationConfig
from repro.cpu.costmodel import CostModel
from repro.host.configs import linux_up_config
from repro.host.machine import ReceiverMachine
from repro.host.client import ClientHost
from repro.mem.hierarchy import MemConfig, MemoryHierarchy
from repro.mem.topology import NumaTopology
from repro.mem.zerocopy import zcrx_item_cycles
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator, install_checker, uninstall_checker
from repro.sim.rng import SeededRng
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource
from repro.workloads.stream import run_stream_experiment

SERVER = ip_from_str("10.0.0.1")


def mem_config(**overrides) -> MemConfig:
    return MemConfig(**overrides)


class FakePacket:
    """Duck-types the three fields the hierarchy reads off a Packet."""

    def __init__(self, wire_len=1500, payload_len=1448):
        self.wire_len = wire_len
        self.payload_len = payload_len
        self.mem_token = None
        self.payload = None
        self._slab_free = False


def make_packet(wire_len=1500, payload_len=1448):
    return FakePacket(wire_len, payload_len)


class FakeSkb:
    def __init__(self, pkts):
        self.head = pkts[0]
        self.frags = list(pkts[1:])


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
class TestTopology:
    def test_single_node_maps_everything_to_zero(self):
        topo = NumaTopology(nodes=1, cpus=4, queues=4)
        assert [topo.node_of_cpu(i) for i in range(4)] == [0, 0, 0, 0]
        assert [topo.node_of_queue(i) for i in range(4)] == [0, 0, 0, 0]

    def test_block_split_two_nodes_four_cpus(self):
        topo = NumaTopology(nodes=2, cpus=4, queues=4)
        assert [topo.node_of_cpu(i) for i in range(4)] == [0, 0, 1, 1]
        assert [topo.node_of_queue(i) for i in range(4)] == [0, 0, 1, 1]

    def test_more_nodes_than_cpus_clamps(self):
        topo = NumaTopology(nodes=4, cpus=2)
        assert [topo.node_of_cpu(i) for i in range(2)] == [0, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            NumaTopology(nodes=0, cpus=1)
        with pytest.raises(ValueError):
            NumaTopology(nodes=1, cpus=0)


# ----------------------------------------------------------------------
# hierarchy: DDIO placement / eviction / consumption
# ----------------------------------------------------------------------
class TestHierarchy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(mem_config(nodes=0))
        with pytest.raises(ValueError):
            MemoryHierarchy(mem_config(ddio_ways=0))
        with pytest.raises(ValueError):
            MemoryHierarchy(mem_config(ddio_ways=16, n_ways=16))

    def test_io_capacity_geometry(self):
        cfg = mem_config()
        # 2 MiB, 16-way, 2 I/O ways, 64 B lines -> 4096 lines.
        assert cfg.io_capacity_lines == 4096
        assert cfg.app_llc_bytes == (2 * 1024 * 1024 * 14) // 16

    def test_place_then_consume_conserves_occupancy(self):
        mem = MemoryHierarchy(mem_config())
        node = mem.nodes[0]
        pkts = [make_packet() for _ in range(5)]
        for pkt in pkts:
            mem.dma_place(pkt, 0)
        lines = mem.lines_of(1500)
        assert node.io_occupancy == 5 * lines
        assert node.ddio_placements == 5
        info = mem.consume_skb(FakeSkb(pkts), consumer_node=0)
        assert node.io_occupancy == 0
        # Payload lines are warm; wire overhead lines stay counted as
        # placed but only payload classifies.
        assert info == (5 * mem.lines_of(1448), 0, 0, 0)
        assert node.llc_hits == 5 * mem.lines_of(1448)
        assert mem.dram_line_fetches == 0

    def test_fifo_eviction_is_deterministic_and_counted(self):
        # Tiny I/O ways: capacity 2048 bytes / 64 = 32 lines.
        mem = MemoryHierarchy(
            mem_config(llc_bytes=16 * 1024, n_ways=16, ddio_ways=2)
        )
        node = mem.nodes[0]
        assert node.io_capacity_lines == 32
        first = make_packet(wire_len=30 * 64)
        mem.dma_place(first, 0)
        assert node.io_occupancy == 30
        second = make_packet(wire_len=10 * 64)
        mem.dma_place(second, 0)  # 30 + 10 > 32 -> first evicted
        assert node.io_occupancy == 10
        assert node.io_evictions == 1
        assert node.evicted_lines == 30
        # The evicted token's lines read cold at consume time.
        info = mem.consume_skb(
            FakeSkb([first]), consumer_node=0
        )
        assert info == (0, 0, mem.lines_of(first.payload_len), 0)
        assert mem.dram_line_fetches == mem.lines_of(first.payload_len)

    def test_oversized_frame_clamps_to_capacity(self):
        mem = MemoryHierarchy(mem_config(llc_bytes=16 * 1024))
        huge = make_packet(wire_len=100 * 64)
        mem.dma_place(huge, 0)
        assert mem.nodes[0].io_occupancy == 32

    def test_determinism_identical_sequences(self):
        def run():
            mem = MemoryHierarchy(mem_config(llc_bytes=64 * 1024))
            pkts = [make_packet(wire_len=1500 + 64 * (i % 7)) for i in range(200)]
            for i, pkt in enumerate(pkts):
                mem.dma_place(pkt, 0)
                if i % 3 == 0:
                    mem.consume_skb(FakeSkb([pkt]), consumer_node=0)
            node = mem.nodes[0]
            return (
                node.io_occupancy,
                node.io_evictions,
                node.evicted_lines,
                node.llc_hits,
                mem.dram_line_fetches,
            )

        assert run() == run()


# ----------------------------------------------------------------------
# NUMA charge accounting
# ----------------------------------------------------------------------
class TestNumaAccounting:
    def test_remote_consume_classifies_and_counts(self):
        mem = MemoryHierarchy(mem_config(nodes=2))
        pkt = make_packet()
        mem.dma_place(pkt, 0)
        info = mem.consume_skb(FakeSkb([pkt]), consumer_node=1)
        plines = mem.lines_of(1448)
        assert info == (0, plines, 0, 0)
        assert mem.remote_line_fetches == plines
        # Warm lines came from the remote LLC, not DRAM.
        assert mem.dram_line_fetches == 0

    def test_remote_copy_costs_more_than_local(self):
        mem = MemoryHierarchy(mem_config(nodes=2))
        plines = mem.lines_of(1448)
        local = mem.copy_cycles(1448, (plines, 0, 0, 0), 0.75)
        remote = mem.copy_cycles(1448, (0, plines, 0, 0), 0.75)
        cold_remote = mem.copy_cycles(1448, (0, 0, 0, plines), 0.75)
        assert local < remote < cold_remote
        expected_delta = plines * (90.0 - 30.0)
        assert remote - local == pytest.approx(expected_delta)

    def test_warm_local_copy_matches_flat_cache_model(self):
        # Calibration: a fully warm, local, cache-resident copy charges
        # exactly what the flat CacheModel charges (same per-line cost).
        costs = CostModel()
        mem = MemoryHierarchy(mem_config())
        for nbytes in (1, 64, 1448, 4096, 8960):
            info = (mem.lines_of(nbytes), 0, 0, 0)
            assert mem.copy_cycles(
                nbytes, info, costs.cache.copy_cycles_per_byte
            ) == pytest.approx(costs.copy_cycles(nbytes))

    def test_meminfo_shortfall_priced_as_local_dram(self):
        mem = MemoryHierarchy(mem_config())
        nothing = mem.copy_cycles(1448, (0, 0, 0, 0), 0.75)
        all_cold = mem.copy_cycles(
            1448, (0, 0, mem.lines_of(1448), 0), 0.75
        )
        assert nothing == pytest.approx(all_cold)

    def test_dst_spill_adds_rfo(self):
        small = MemoryHierarchy(mem_config(app_working_set_bytes=0))
        big = MemoryHierarchy(
            mem_config(app_working_set_bytes=64 * 1024 * 1024)
        )
        assert small.dst_cold_fraction == 0.0
        assert 0.9 < big.dst_cold_fraction < 1.0
        info = (small.lines_of(1448), 0, 0, 0)
        assert big.copy_cycles(1448, info, 0.75) > small.copy_cycles(1448, info, 0.75)


# ----------------------------------------------------------------------
# zero-copy charge model
# ----------------------------------------------------------------------
class TestZcrxCycles:
    def test_page_accounting(self):
        costs = CostModel()
        cycles, pages, cold = zcrx_item_cycles(costs, 3 * 4096 + 1, None)
        assert pages == 4
        assert cold == 0
        assert cycles == pytest.approx(
            costs.zc_setup_per_skb + 4 * costs.zc_map_per_page
        )

    def test_cold_fraction_scales_fault_charge(self):
        costs = CostModel()
        warm = zcrx_item_cycles(costs, 8192, (128, 0, 0, 0))
        half = zcrx_item_cycles(costs, 8192, (64, 0, 64, 0))
        cold = zcrx_item_cycles(costs, 8192, (0, 0, 128, 0))
        assert warm[2] == 0 and cold[2] == 2
        assert warm[0] < half[0] < cold[0]

    def test_zero_bytes_is_free(self):
        assert zcrx_item_cycles(CostModel(), 0, None) == (0.0, 0, 0)


# ----------------------------------------------------------------------
# end to end: flat equivalence and byte-stream integrity
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_flat_default_is_bit_identical_to_pre_mem_rows(self):
        """mem=None (the default) must reproduce the pinned UP-optimized
        quick row exactly — same events fired, same goodput."""
        result = run_stream_experiment(
            linux_up_config(), OptimizationConfig.optimized(),
            duration=0.05, warmup=0.05,
        )
        assert result.events_fired == 84998
        assert result.throughput_mbps == pytest.approx(4707.7376, abs=1e-6)

    def _materialized_transfer(self, opt, mem=None, nbytes=300_000, seed=11):
        sim = Simulator()
        cfg = dataclasses.replace(linux_up_config(), n_nics=1, mem=mem)
        machine = ReceiverMachine(sim, cfg, opt, ip=SERVER)
        received = []
        machine.listen(
            5001,
            lambda sock: setattr(
                sock, "on_data_cb",
                lambda s, payload, length: received.append(payload),
            ),
        )
        client = ClientHost(sim, ip_from_str("10.0.1.1"))
        machine.add_client(client, rng=SeededRng(seed, "impair"))
        sock = client.connect(SERVER, 5001, config=TcpConfig(materialize_payload=True))
        sock.conn.attach_source(
            InfiniteSource(materialize=True, seed=seed, limit_bytes=nbytes)
        )
        sim.run(until=5.0)
        server_sock = next(iter(machine.kernel.sockets.values()))
        return machine, server_sock, b"".join(p for p in received if p)

    def test_zcrx_preserves_the_byte_stream(self):
        machine, sock, payload = self._materialized_transfer(
            OptimizationConfig.zcrx(), mem=mem_config()
        )
        assert sock.bytes_received == 300_000
        assert payload == InfiniteSource.pattern(0, 300_000, seed=11)
        assert machine.kernel.zcrx.skbs > 0
        assert machine.kernel.zcrx.pages_mapped > 0
        assert machine.kernel.copy_charged_items == 0

    def test_copy_mode_charges_copy_and_not_zcrx(self):
        machine, sock, payload = self._materialized_transfer(
            OptimizationConfig.optimized(), mem=mem_config()
        )
        assert sock.bytes_received == 300_000
        assert payload == InfiniteSource.pattern(0, 300_000, seed=11)
        assert machine.kernel.copy_charged_items > 0
        assert machine.kernel.zcrx.skbs == 0

    def test_hierarchy_counters_live_on_the_stream_rig(self):
        machine, _, _ = self._materialized_transfer(
            OptimizationConfig.optimized(), mem=mem_config()
        )
        mem = machine.mem
        assert mem.ddio_placements > 0
        assert mem.llc_hits > 0
        # Single-node UP rig: nothing is ever remote.
        assert mem.remote_line_fetches == 0

    def test_xen_rejects_mem_config(self):
        from repro.xen.machine import XenReceiverMachine
        from repro.host.configs import xen_config

        cfg = dataclasses.replace(xen_config(), mem=mem_config())
        with pytest.raises(ValueError, match="not modelled for the Xen"):
            XenReceiverMachine(
                Simulator(), cfg, OptimizationConfig.optimized()
            )


# ----------------------------------------------------------------------
# sanitizer audits fire on tampered state
# ----------------------------------------------------------------------
class TestSanitizerAudits:
    @pytest.fixture(autouse=True)
    def _fresh_sanitizer_state(self):
        uninstall_checker(SimSanitizer)
        yield
        uninstall_checker(SimSanitizer)

    def _run_with_corruption(self, corrupt, opt=None):
        from repro.workloads.stream import build_stream_rig

        install_checker(SimSanitizer)
        try:
            cfg = dataclasses.replace(
                linux_up_config(), n_nics=2, mem=mem_config()
            )
            sim, machine, clients, senders = build_stream_rig(
                cfg, opt or OptimizationConfig.optimized()
            )
            sim.run(until=0.01)
            corrupt(machine)
            sim.run(until=0.02)
        finally:
            uninstall_checker(SimSanitizer)

    def test_clean_mem_rig_passes(self):
        self._run_with_corruption(lambda machine: None)
        self._run_with_corruption(
            lambda machine: None, opt=OptimizationConfig.zcrx()
        )

    def test_occupancy_counter_tamper_fires(self):
        def corrupt(machine):
            machine.mem.nodes[0].io_occupancy += 7

        with pytest.raises(InvariantViolation, match="DDIO occupancy accounting"):
            self._run_with_corruption(corrupt)

    def test_occupancy_bound_tamper_fires(self):
        # Shrinking the capacity keeps conservation consistent (placement
        # evicts down to it) but leaves occupancy > capacity the moment the
        # next frame lands — only the bound audit can catch that.
        def corrupt(machine):
            machine.mem.nodes[0].io_capacity_lines = -1

        with pytest.raises(InvariantViolation, match="I/O-way capacity"):
            self._run_with_corruption(corrupt)

    def test_unevictable_entry_tamper_fires(self):
        def corrupt(machine):
            node = machine.mem.nodes[0]
            node.fifo.clear()

        with pytest.raises(InvariantViolation, match="never be evicted"):
            self._run_with_corruption(corrupt)

    def test_copy_charge_under_zcrx_fires(self):
        def corrupt(machine):
            machine.kernel.copy_charged_items += 1

        with pytest.raises(InvariantViolation, match="no-copy-under-zcrx"):
            self._run_with_corruption(corrupt, opt=OptimizationConfig.zcrx())


# ----------------------------------------------------------------------
# slab satellites: configurable capacity + freelist-miss counter
# ----------------------------------------------------------------------
class TestSlabSatellites:
    def test_capacity_constructor_arg(self):
        from repro.buffers.slab import PacketSlab

        assert PacketSlab(capacity=17).capacity == 17
        assert PacketSlab().capacity == 8192

    def test_miss_counter_counts_empty_freelist_acquires(self):
        from repro.buffers.slab import PacketSlab

        slab = PacketSlab(capacity=4)
        assert slab.acquire() is None
        assert slab.misses == 1
        pkt = make_packet()
        pkt.payload = None
        pkt._slab_free = False
        assert slab.release(pkt)
        assert slab.acquire() is pkt
        assert slab.misses == 1


# ----------------------------------------------------------------------
# runner / CLI plumbing
# ----------------------------------------------------------------------
class TestRunnerPlumbing:
    def test_numa_nodes_rejected_by_unsupporting_experiment(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="memory hierarchy"):
            run_experiment("figure7", quick=True, numa_nodes=2)

    def test_zero_copy_rejected_by_unsupporting_experiment(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(ValueError, match="receive mode"):
            run_experiment("figure7", quick=True, zero_copy=True)

    def test_bad_numa_nodes_rejected_loudly(self):
        from repro.experiments.extension_zero_copy import run

        with pytest.raises(ValueError, match="numa-nodes"):
            run(quick=True, numa_nodes=0)

    def test_unknown_system_rejected_loudly(self):
        from repro.experiments.extension_zero_copy import run

        with pytest.raises(ValueError, match="unknown system"):
            run(quick=True, systems=("vax",))


# ----------------------------------------------------------------------
# sweep rows: serial == parallel
# ----------------------------------------------------------------------
class TestSweepDeterminism:
    def test_serial_matches_parallel_rows(self):
        from repro.experiments.extension_zero_copy import _measure_point
        from repro.parallel import run_points

        points = [
            ("up", 256 << 10, 1, False, 0.02, 0.02),
            ("up", 16 << 20, 1, False, 0.02, 0.02),
        ]
        serial = [_measure_point(p) for p in points]
        parallel = run_points(_measure_point, points, jobs=2)
        assert serial == parallel

    def test_crossover_on_the_up_rig(self):
        """Mechanistic expectation: copy cycles/byte beats zcrx sub-LLC
        and loses past the LLC, where zcrx stays flat."""
        from repro.experiments.extension_zero_copy import _measure_point

        small = _measure_point(("up", 256 << 10, 1, False, 0.02, 0.02))
        large = _measure_point(("up", 16 << 20, 1, False, 0.02, 0.02))
        assert small["copy cyc/B"] < small["zcrx cyc/B"]
        assert large["copy cyc/B"] > large["zcrx cyc/B"]
        # Page remapping never touches the payload: the working set cannot
        # change zcrx's charge by a single cycle.
        assert large["zcrx cyc/B"] == small["zcrx cyc/B"]
        assert large["zcrx Mb/s"] > large["copy Mb/s"]
