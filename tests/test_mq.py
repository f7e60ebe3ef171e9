"""Integration tests for the multi-queue RSS receive subsystem.

Covers the properties the extension claims: byte-stream integrity through
per-CPU receive paths (clean links and duplicated frames alike), determinism
per seed, throughput scaling with queue count when the baseline stack is
CPU-bound, the RSS-vs-aRFS cross-CPU cost story, and the sanitizer's
multi-queue audits (including the same-flow-same-queue invariant).
"""

import dataclasses

import pytest

from repro.analysis.racecheck import RaceChecker
from repro.analysis.sanitizer import InvariantViolation, SimSanitizer
from repro.core.config import OptimizationConfig
from repro.host.client import ClientHost
from repro.host.configs import linux_smp_config
from repro.host.machine import ReceiverMachine
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator, install_checker, uninstall_checker
from repro.sim.rng import SeededRng
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource
from repro.workloads.stream import build_stream_rig, run_stream_experiment

from tests.conftest import fast_config

SERVER = ip_from_str("10.0.0.1")


def run_mq_transfer(opt, queues=2, steering="rss", nbytes=200_000, n_conns=4,
                    dup=0.0, seed=11, until=10.0):
    """Materialized transfers through the multi-queue machine; returns
    (machine, per-connection payloads received in order)."""
    sim = Simulator()
    machine = ReceiverMachine(
        sim, fast_config(n_nics=1), opt, queues=queues, steering=steering, ip=SERVER
    )
    received = {}

    def on_accept(sock):
        port = sock.conn.key.dst_port
        received[port] = []
        sock.on_data_cb = lambda s, payload, length: received[port].append(payload)

    machine.listen(5001, on_accept)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    rng = SeededRng(seed, "impair") if dup else None
    machine.add_client(client, dup_prob=dup, rng=rng)
    for j in range(n_conns):
        sock = client.connect(SERVER, 5001, config=TcpConfig(materialize_payload=True))
        sock.conn.attach_source(InfiniteSource(materialize=True, seed=seed + j, limit_bytes=nbytes))
    sim.run(until=until)
    return machine, received


def test_nic_lro_is_governed_per_queue_under_a_reorder_storm():
    """Hardware LRO with auto_degrade on a 2-queue rig (extension_resilience's
    reorder_storm+lro setting): each queue's LRO answers to its own path's
    governor, which degrades it during the storm, and every stream stays
    intact."""
    from repro.experiments.extension_resilience import FAULT_DURATION, FAULT_START
    from repro.faults.plan import ImpairmentConfig, storm_plan
    from repro.tcp.seqmath import seq_diff

    plan = storm_plan("reorder_storm", 0.3, start=FAULT_START, duration=FAULT_DURATION)
    config = dataclasses.replace(fast_config(), nic_lro=True)
    sim, machine, _clients, _senders = build_stream_rig(
        config, OptimizationConfig.resilient(),
        impairments=ImpairmentConfig(plan=plan), queues=2,
    )
    lros = [queue.lro for nic in machine.nics for queue in nic.queues]
    assert [lro.governor for lro in lros] == machine.governors
    sim.run(until=plan.horizon + 0.02)

    assert any(governor.stats.enters > 0 for governor in machine.governors)
    assert any(lro.passthrough_degraded > 0 for lro in lros)
    kernel = machine.kernel
    assert kernel.sockets
    for key, sock in kernel.sockets.items():
        conn = kernel.connections[key]
        assert sock.bytes_received + sock.pending_bytes == seq_diff(conn.rcv_nxt, conn.irs) - 1


@pytest.mark.parametrize("steering", ["rss", "arfs"])
@pytest.mark.parametrize("opt_name", ["baseline", "optimized"])
def test_mq_transfer_integrity(opt_name, steering):
    opt = getattr(OptimizationConfig, opt_name)()
    machine, received = run_mq_transfer(opt, queues=2, steering=steering,
                                        nbytes=120_000, n_conns=4)
    assert len(machine.kernel.sockets) == 4
    for j, sock in enumerate(sorted(machine.kernel.sockets.values(),
                                    key=lambda s: s.conn.key.dst_port)):
        assert sock.bytes_received == 120_000
        payload = b"".join(p for p in received[sock.conn.key.dst_port] if p)
        assert payload == InfiniteSource.pattern(0, 120_000, seed=11 + j)
    machine.pool.assert_balanced()


@pytest.mark.parametrize("steering", ["rss", "arfs"])
def test_mq_transfer_integrity_under_duplication(steering):
    """Duplicated wire frames must not corrupt or double-count the stream."""
    machine, received = run_mq_transfer(
        OptimizationConfig.optimized(), queues=2, steering=steering,
        nbytes=100_000, n_conns=2, dup=0.05, until=20.0,
    )
    dup_link = machine.clients[0].tx_link
    assert dup_link.stats.frames_duplicated > 0
    for j, sock in enumerate(sorted(machine.kernel.sockets.values(),
                                    key=lambda s: s.conn.key.dst_port)):
        assert sock.bytes_received == 100_000
        payload = b"".join(p for p in received[sock.conn.key.dst_port] if p)
        assert payload == InfiniteSource.pattern(0, 100_000, seed=11 + j)
    machine.pool.assert_balanced()


def test_classic_machine_transfer_under_duplication():
    """The single-path machine also survives duplicate frames (regression
    for the dup_prob plumbing through ReceiverMachine)."""
    from tests.test_integration_native import run_transfer

    server_sock, machine, _, payload = run_transfer(
        OptimizationConfig.optimized(), nbytes=100_000, until=20.0, dup=0.05
    )
    assert server_sock.bytes_received == 100_000
    assert payload == InfiniteSource.pattern(0, 100_000, seed=11)
    machine.pool.assert_balanced()


def test_sockets_are_pinned_round_robin():
    machine, _ = run_mq_transfer(OptimizationConfig.baseline(), queues=2, n_conns=4)
    indices = [sock.app_cpu_index for _, sock in sorted(machine.kernel.sockets.items())]
    assert sorted(indices) == [0, 0, 1, 1]


def test_mq_run_is_deterministic():
    a = run_stream_experiment(linux_smp_config(), OptimizationConfig.baseline(),
                              queues=4, n_connections=50, duration=0.02, warmup=0.01)
    b = run_stream_experiment(linux_smp_config(), OptimizationConfig.baseline(),
                              queues=4, n_connections=50, duration=0.02, warmup=0.01)
    assert a.throughput_mbps == b.throughput_mbps  # bit-identical
    assert a.breakdown == b.breakdown


def test_baseline_throughput_scales_with_queues_when_cpu_bound():
    """At 200 connections the single-path baseline is CPU-bound; adding
    receive queues must increase aggregate throughput monotonically."""

    single = run_stream_experiment(linux_smp_config(), OptimizationConfig.baseline(),
                                   n_connections=200, duration=0.03, warmup=0.02)
    results = [single.throughput_mbps]
    for q in (2, 4):
        r = run_stream_experiment(linux_smp_config(), OptimizationConfig.baseline(),
                                  queues=q, n_connections=200,
                                  duration=0.03, warmup=0.02)
        results.append(r.throughput_mbps)
    assert results[0] < results[1] < results[2], results
    assert single.cpu_utilization == pytest.approx(1.0)


def test_arfs_eliminates_cross_cpu_costs():
    rss = run_stream_experiment(linux_smp_config(), OptimizationConfig.baseline(),
                                queues=4, steering="rss",
                                n_connections=40, duration=0.02, warmup=0.01)
    arfs = run_stream_experiment(linux_smp_config(), OptimizationConfig.baseline(),
                                 queues=4, steering="arfs",
                                 n_connections=40, duration=0.02, warmup=0.01)
    assert rss.breakdown.get("xcpu", 0.0) > 0.0
    assert arfs.breakdown.get("xcpu", 0.0) == 0.0


def test_mq_cycles_are_conserved_across_cpus():
    """Profiled cycles summed over all CPUs equal total busy cycles."""
    sim = Simulator()
    machine = ReceiverMachine(sim, fast_config(n_nics=1),
                              OptimizationConfig.optimized(), queues=2, ip=SERVER)
    machine.listen(5001)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    machine.add_client(client)
    for j in range(4):
        sock = client.connect(SERVER, 5001, config=TcpConfig(mss=1448))
        sock.conn.attach_source(InfiniteSource(materialize=False, seed=j))
    sim.run(until=0.05)
    snap = machine.merged_profile()
    assert sum(snap.cycles.values()) == pytest.approx(machine.total_busy_cycles(), rel=1e-9)


def test_sanitizer_audits_mq_rig():
    handle = install_checker(SimSanitizer)
    try:
        r = run_stream_experiment(linux_smp_config(), OptimizationConfig.optimized(),
                                  queues=4, steering="arfs",
                                  n_connections=16, duration=0.02, warmup=0.01)
        assert r.throughput_mbps > 0
        sanitizer = handle.observers[-1]
        assert sanitizer.stats.deep_audits > 0
    finally:
        uninstall_checker(SimSanitizer)


def test_sanitizer_catches_flow_requeued_without_resteer():
    """Reprogramming the indirection table under a static-RSS policy moves
    live flows without a generation bump — the same-flow-same-queue audit
    must fail the run."""
    install_checker(SimSanitizer)
    try:
        sim = Simulator()
        machine = ReceiverMachine(sim, fast_config(n_nics=1),
                                  OptimizationConfig.baseline(), queues=2, ip=SERVER)
        machine.listen(5001)
        client = ClientHost(sim, ip_from_str("10.0.1.1"))
        machine.add_client(client)
        for j in range(4):
            sock = client.connect(SERVER, 5001, config=TcpConfig(mss=1448))
            sock.conn.attach_source(InfiniteSource(materialize=False, seed=j))
        sim.run(until=0.02)
        table = machine.steering.table
        for slot in range(len(table.slots)):
            table.program(slot, 1 - table.slots[slot])  # swap every queue
        with pytest.raises(InvariantViolation, match="same-flow-same-queue"):
            sim.run(until=0.04)
    finally:
        uninstall_checker(SimSanitizer)


# ----------------------------------------------------------------------
# sort-and-coalesce on the multi-queue rig: racecheck + ledger stay green
# ----------------------------------------------------------------------
def test_mq_repair_rig_racecheck_and_ledger_green():
    """A 2-queue rig under a reorder storm with the repair stage enabled:
    streams stay byte-intact, the race detector sees no cross-CPU ownership
    violation (each repair buffer lives entirely on its queue's CPU), and
    the cycle ledger still reconciles exactly with the new repair stage
    charging cycles under its own category and lifecycle stage."""
    from repro import obs
    from repro.obs import runtime as obs_runtime

    obs.configure(ledger=True)
    handle = install_checker(RaceChecker)
    try:
        with obs_runtime.observe("mq-repair") as o:
            sim = Simulator()
            machine = ReceiverMachine(
                sim, fast_config(n_nics=1),
                OptimizationConfig.resilient(repair=True),
                queues=2, steering="rss", ip=SERVER,
            )
            received = {}

            def on_accept(sock):
                port = sock.conn.key.dst_port
                received[port] = []
                sock.on_data_cb = (
                    lambda s, payload, length: received[port].append(payload)
                )

            machine.listen(5001, on_accept)
            client = ClientHost(sim, ip_from_str("10.0.1.1"))
            machine.add_client(
                client, reorder_prob=0.2, rng=SeededRng(11, "impair")
            )
            for j in range(4):
                sock = client.connect(
                    SERVER, 5001, config=TcpConfig(materialize_payload=True)
                )
                sock.conn.attach_source(
                    InfiniteSource(materialize=True, seed=11 + j, limit_bytes=60_000)
                )
            o.ledger.port_class[5001] = "stream"
            o.ledger.set_phases([("warmup", 0.0), ("measure", 0.02)])
            sim.run(until=10.0)

        for j, sock in enumerate(sorted(machine.kernel.sockets.values(),
                                        key=lambda s: s.conn.key.dst_port)):
            assert sock.bytes_received == 60_000
            payload = b"".join(p for p in received[sock.conn.key.dst_port] if p)
            assert payload == InfiniteSource.pattern(0, 60_000, seed=11 + j)

        # The sort path actually exercised, and conserved every frame.
        assert sum(r.stats.holds for r in machine.repairs) > 0
        for repair in machine.repairs:
            assert repair.stats.frames_in == repair.stats.frames_out + repair.occupancy

        # No cross-CPU ownership violation anywhere in the repair path.
        stats = [c.stats for c in handle.observers if c.stats.accesses_noted]
        assert stats
        assert all(s.violations == 0 for s in stats)

        # Exact ledger reconciliation, with repair cycles in their own
        # category and lifecycle stage.
        assert o.ledger.verify(machine.cpus) == []
        assert any(key[1] == "repair" for key in o.ledger.cells)
        # Lifecycle stage "repair" nests under the ISR that ran the stage.
        assert any("repair" in key[2].split(";") for key in o.ledger.cells)
    finally:
        uninstall_checker(RaceChecker)
        obs.reset()
