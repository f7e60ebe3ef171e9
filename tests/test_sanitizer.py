"""Runtime sanitizer: every invariant fires on corrupted state, passes clean.

The fakes below duck-type only what the sanitizer reads; the end-to-end
tests use the real stream rig with deliberately-injected corruption.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.sanitizer import InvariantViolation, SimSanitizer
from repro.core.config import OptimizationConfig
from repro.host.configs import linux_up_config
from repro.host.machine import ReceiverMachine
from repro.nic.ring import RxRing
from repro.sim.engine import Simulator, install_checker, installed_checkers, uninstall_checker
from repro.tcp.state import TcpState
from repro.workloads.stream import build_stream_rig, run_stream_experiment


def fast_config(**overrides):
    cfg = linux_up_config()
    return dataclasses.replace(cfg, n_nics=overrides.pop("n_nics", 2), **overrides)


@pytest.fixture(autouse=True)
def _fresh_sanitizer_state():
    """These tests install/detach sanitizers themselves; run them from a
    clean slate even when REPRO_SANITIZE=1 has the suite-wide fixture
    installing one first (a second hook on the same engine is refused)."""
    uninstall_checker(SimSanitizer)
    yield
    uninstall_checker(SimSanitizer)


# ----------------------------------------------------------------------
# duck-typed stand-ins
# ----------------------------------------------------------------------
class FakeReno:
    def __init__(self, mss=1448):
        self.mss = mss
        self.cwnd = 3 * mss
        self.ssthresh = 1 << 30


class FakeConnStats:
    def __init__(self):
        self.bytes_delivered = 0


class FakeConn:
    def __init__(self, name="fake"):
        self.name = name
        self.state = TcpState.ESTABLISHED
        self.iss = 1000
        self.snd_una = 1001
        self.snd_nxt = 1001
        self.irs = 9000
        self.rcv_nxt = 9001
        self.reno = FakeReno()
        self.stats = FakeConnStats()


class FakeKernel:
    def __init__(self):
        self.connections = {}
        self.aggregator = None


class FakeMachine:
    def __init__(self):
        self.kernel = FakeKernel()
        self.cpus = []
        self.clients = []
        self.drivers = []
        self.nics = []
        self.aggregators = []
        self.governors = []
        self.repairs = []
        self.links = []


def make_sanitized(conn=None):
    """A Simulator with a sanitizer watching one fake machine."""
    sim = Simulator()
    sanitizer = SimSanitizer(sim, deep_every=4)
    machine = FakeMachine()
    if conn is not None:
        machine.kernel.connections[("flow",)] = conn
    sanitizer.watch_machine(machine)
    return sim, sanitizer, machine


def fire(sim, n=1):
    """Schedule and run ``n`` no-op events (each triggers the audit hook)."""
    for _ in range(n):
        sim.post(0.0, lambda: None)
    sim.run()


# ----------------------------------------------------------------------
# per-event connection invariants
# ----------------------------------------------------------------------
class TestConnectionInvariants:
    def test_healthy_connection_passes(self):
        sim, sanitizer, _ = make_sanitized(FakeConn())
        fire(sim, 8)
        assert sanitizer.stats.connection_checks == 8

    def test_snd_una_regression_detected(self):
        conn = FakeConn()
        sim, _, _ = make_sanitized(conn)
        fire(sim)  # snapshot taken
        conn.snd_una = (conn.snd_una - 100) & 0xFFFFFFFF
        with pytest.raises(InvariantViolation, match="snd_una regressed"):
            fire(sim)

    def test_rcv_nxt_regression_detected(self):
        conn = FakeConn()
        sim, _, _ = make_sanitized(conn)
        fire(sim)
        conn.rcv_nxt = (conn.rcv_nxt - 1) & 0xFFFFFFFF
        with pytest.raises(InvariantViolation, match="rcv_nxt regressed"):
            fire(sim)

    def test_snd_una_ahead_of_snd_nxt_detected(self):
        conn = FakeConn()
        conn.snd_una = conn.snd_nxt + 10
        sim, _, _ = make_sanitized(conn)
        with pytest.raises(InvariantViolation, match="ahead of snd_nxt"):
            fire(sim)

    def test_cwnd_below_mss_detected(self):
        conn = FakeConn()
        conn.reno.cwnd = conn.reno.mss - 1
        sim, _, _ = make_sanitized(conn)
        with pytest.raises(InvariantViolation, match="cwnd"):
            fire(sim)

    def test_ssthresh_below_floor_detected(self):
        conn = FakeConn()
        conn.reno.ssthresh = conn.reno.mss  # RFC 5681 floor is 2*MSS
        sim, _, _ = make_sanitized(conn)
        with pytest.raises(InvariantViolation, match="ssthresh"):
            fire(sim)

    def test_receive_stream_accounting_mismatch_detected(self):
        conn = FakeConn()
        # rcv_nxt claims 500 delivered bytes, stats say 0.
        conn.rcv_nxt = (conn.irs + 1 + 500) & 0xFFFFFFFF
        sim, _, _ = make_sanitized(conn)
        with pytest.raises(InvariantViolation, match="receive stream accounting"):
            fire(sim)

    def test_fin_octet_slack_allowed(self):
        conn = FakeConn()
        conn.stats.bytes_delivered = 500
        conn.rcv_nxt = (conn.irs + 1 + 500 + 1) & 0xFFFFFFFF  # +1 = consumed FIN
        sim, sanitizer, _ = make_sanitized(conn)
        fire(sim, 2)
        assert sanitizer.stats.connection_checks == 2

    def test_pre_handshake_states_skip_stream_accounting(self):
        conn = FakeConn()
        conn.state = TcpState.LISTEN
        conn.irs = 0
        conn.rcv_nxt = 0
        sim, sanitizer, _ = make_sanitized(conn)
        fire(sim, 2)
        assert sanitizer.stats.connection_checks == 2


# ----------------------------------------------------------------------
# structural audits (heap / ring)
# ----------------------------------------------------------------------
class TestStructuralAudits:
    def test_time_never_regresses_tracked(self):
        sim, sanitizer, _ = make_sanitized()
        sim.post(1e-3, lambda: None)
        sim.post(2e-3, lambda: None)
        sim.run()
        assert sanitizer.stats.events_checked == 2

    @pytest.mark.parametrize("counter", ["_pending", "_cancelled"])
    def test_heap_accounting_corruption_detected(self, counter):
        """Lost live-event bookkeeping and a double-counted cancel both
        break ``pending + cancelled == len(heap)``."""
        sim, sanitizer, _ = make_sanitized()
        fire(sim, 4)  # deep audit every 4 events; clean pass first
        setattr(sim, counter, getattr(sim, counter) + 3)
        with pytest.raises(InvariantViolation, match="event heap accounting broken"):
            fire(sim, 4)

    def test_ring_conservation_corruption_detected(self):
        sim, sanitizer, machine = make_sanitized()

        class FakeNicStats:
            rx_frames = 0

        class FakeQueue:
            index = 0
            ring = RxRing(capacity=4)
            lro = None

        class FakeNic:
            name = "fake-eth0"
            n_queues = 1
            queues = [FakeQueue()]
            stats = FakeNicStats()

        machine.nics.append(FakeNic())
        fire(sim, 4)  # clean audit first
        FakeQueue.ring.drained += 1  # a packet "drained" that was never posted
        with pytest.raises(InvariantViolation, match="ring packet conservation"):
            fire(sim, 4)

    @pytest.mark.parametrize("where", ["ring", "LRO table"])
    def test_freelisted_packet_held_by_nic_caught(self, where):
        """A packet a ring or an open LRO session still holds must not sit
        on the packet slab's freelist (reuse-after-free)."""
        from repro.buffers.slab import PacketSlab
        from repro.net.packet import make_data_segment
        from repro.nic.lro import LroEngine

        sim, _sanitizer, machine = make_sanitized()
        pkt = make_data_segment(1, 2, 3, 4, seq=1000, ack=0, payload_len=100)
        pkt.csum_verified = True
        queue = type("FakeQueue", (), {"index": 0, "ring": RxRing(capacity=4), "lro": LroEngine()})()
        if where == "ring":
            queue.ring.post(pkt)
        else:
            assert queue.lro.accept(pkt) == []
        stats = type("FakeNicStats", (), {"rx_frames": 1})()
        nic = type("FakeNic", (), {"name": "fake-eth0", "n_queues": 1, "queues": [queue], "stats": stats})()
        machine.nics.append(nic)
        fire(sim, 4)  # clean audit first
        assert PacketSlab().release(pkt)
        with pytest.raises(InvariantViolation, match=f"q0 {where}: holds a packet that is on the slab freelist"):
            fire(sim, 4)


# ----------------------------------------------------------------------
# clean end-to-end runs (real rigs)
# ----------------------------------------------------------------------
class TestCleanRuns:
    def test_optimized_stream_run_is_clean_and_covered(self):
        handle = install_checker(SimSanitizer)
        try:
            run_stream_experiment(
                fast_config(), OptimizationConfig.optimized(),
                duration=0.03, warmup=0.01,
            )
            san = handle.observers[-1]
            # Every invariant class actually exercised, not just not-failing.
            assert san.stats.events_checked > 1000
            assert san.stats.connection_checks > 0
            assert san.stats.skbs_checked > 0          # aggregation path
            assert san.stats.templates_verified > 0    # ACK offload path
            assert san.stats.expanded_acks_verified > 0
            assert san.stats.deep_audits > 0
        finally:
            uninstall_checker(SimSanitizer)

    def test_baseline_stream_run_is_clean(self):
        handle = install_checker(SimSanitizer)
        try:
            run_stream_experiment(
                fast_config(), OptimizationConfig.baseline(),
                duration=0.03, warmup=0.01,
            )
            assert handle.observers[-1].stats.connection_checks > 0
        finally:
            uninstall_checker(SimSanitizer)

    def test_install_uninstall_restores_classes(self):
        handle = install_checker(SimSanitizer)
        assert SimSanitizer in installed_checkers()
        sanitized = Simulator()
        machine = ReceiverMachine(sanitized, fast_config(), OptimizationConfig.baseline())
        assert [s.sim for s in handle.observers] == [sanitized]
        assert handle.observers[0].machines == [machine]
        uninstall_checker(SimSanitizer)
        assert SimSanitizer not in installed_checkers()
        # A simulator built after uninstall_checker() gets no sanitizer.
        ReceiverMachine(Simulator(), fast_config(), OptimizationConfig.baseline())
        assert [s.sim for s in handle.observers] == [sanitized]

    def test_install_is_idempotent(self):
        handle = install_checker(SimSanitizer, deep_every=7)
        try:
            assert install_checker(SimSanitizer) is handle
            assert installed_checkers()[SimSanitizer] == {"deep_every": 7}
            assert Simulator().observers[-1].deep_every == 7
        finally:
            uninstall_checker(SimSanitizer)


# ----------------------------------------------------------------------
# deliberately-broken connection, end to end
# ----------------------------------------------------------------------
class TestBrokenConnectionEndToEnd:
    def _run_with_corruption(self, corrupt):
        """Run a real rig; apply ``corrupt(machine)`` mid-run."""
        handle = install_checker(SimSanitizer)
        try:
            sim, machine, clients, senders = build_stream_rig(
                fast_config(), OptimizationConfig.optimized()
            )
            sim.run(until=0.01)  # healthy warm-up under the sanitizer
            corrupt(machine)
            sim.run(until=0.02)
        finally:
            uninstall_checker(SimSanitizer)

    def test_ack_state_corruption_caught_in_real_run(self):
        def corrupt(machine):
            conn = next(iter(machine.kernel.connections.values()))
            conn.rcv_nxt = (conn.rcv_nxt - 1000) & 0xFFFFFFFF

        with pytest.raises(InvariantViolation, match="rcv_nxt regressed"):
            self._run_with_corruption(corrupt)

    def test_cwnd_corruption_caught_in_real_run(self):
        def corrupt(machine):
            conn = next(iter(machine.kernel.connections.values()))
            conn.reno.cwnd = 0

        with pytest.raises(InvariantViolation, match="cwnd"):
            self._run_with_corruption(corrupt)

    def test_aggregation_counter_corruption_caught(self):
        def corrupt(machine):
            machine.kernel.aggregator.stats.packets_enqueued += 7

        with pytest.raises(InvariantViolation, match="aggregation queue conservation"):
            self._run_with_corruption(corrupt)

    def test_delivered_bytes_corruption_caught(self):
        def corrupt(machine):
            conn = next(iter(machine.kernel.connections.values()))
            conn.stats.bytes_delivered += 10_000

        with pytest.raises(InvariantViolation, match="receive stream accounting"):
            self._run_with_corruption(corrupt)


# ----------------------------------------------------------------------
# aggregation / template checks on corrupted packet structures
# ----------------------------------------------------------------------
class _Captured(Exception):
    """Stops a rig's run at the deliver hook that raised it."""


class TestPacketStructureChecks:
    def _delivered_aggregate(self):
        """Capture one real multi-fragment aggregate skb from a live rig.

        The run stops inside the deliver hook, before the kernel takes the
        skb: once freed, its head and fragments go back to the packet slab,
        which re-stamps them for other flows.
        """
        handle = install_checker(SimSanitizer)
        captured = []
        try:
            sim, machine, clients, senders = build_stream_rig(
                fast_config(), OptimizationConfig.optimized()
            )
            aggregator = machine.kernel.aggregator
            sim.run(until=0.005)  # wraps deliver via the sanitizer
            original = aggregator.deliver

            def capturing(skb):
                if skb.frags:
                    captured.append(skb)
                    raise _Captured
                return original(skb)

            aggregator.deliver = capturing
            sanitizer = handle.observers[-1]
            with pytest.raises(_Captured):
                sim.run(until=0.02)
        finally:
            uninstall_checker(SimSanitizer)
        skb = captured[0]
        assert not skb.head._slab_free
        assert not any(frag._slab_free for frag in skb.frags)
        return sanitizer, aggregator, skb

    def test_fragment_edge_corruption_detected(self):
        sanitizer, aggregator, skb = self._delivered_aggregate()
        skb.frag_end_seqs[-1] = (skb.frag_end_seqs[-1] + 1000) & 0xFFFFFFFF
        with pytest.raises(InvariantViolation, match="byte-stream equivalence"):
            sanitizer._check_aggregated_skb(aggregator, skb)

    def test_head_ack_mismatch_detected(self):
        sanitizer, aggregator, skb = self._delivered_aggregate()
        skb.frag_acks[-1] = (skb.frag_acks[-1] + 4) & 0xFFFFFFFF
        with pytest.raises(InvariantViolation, match="not the last"):
            sanitizer._check_aggregated_skb(aggregator, skb)

    def test_metadata_array_mismatch_detected(self):
        sanitizer, aggregator, skb = self._delivered_aggregate()
        skb.frag_windows.append(1234)
        with pytest.raises(InvariantViolation, match="metadata arrays"):
            sanitizer._check_aggregated_skb(aggregator, skb)

    def test_template_checksum_corruption_detected(self):
        """A template whose head checksum is wrong fails RFC 1624 verification."""
        handle = install_checker(SimSanitizer)
        try:
            sim, machine, clients, senders = build_stream_rig(
                fast_config(), OptimizationConfig.optimized()
            )
            driver = machine.drivers[0]
            sim.run(until=0.01)  # sanitizer wraps tx_template
            sanitizer = handle.observers[-1]

            captured = []
            wrapped = driver.tx_template  # sanitizer's checked wrapper

            def intercept(skb):
                if skb.is_template_ack and not captured:
                    # Corrupt the stored checksum the driver will patch from.
                    skb.head.tcp.checksum ^= 0x00FF
                    captured.append(skb)
                return wrapped(skb)

            driver.tx_template = intercept
            with pytest.raises(InvariantViolation, match="RFC 1624"):
                sim.run(until=0.05)
            assert captured, "no template ACK passed through the driver"
        finally:
            uninstall_checker(SimSanitizer)


# ----------------------------------------------------------------------
# fault-era invariants: link / driver-reset / governor conservation
# ----------------------------------------------------------------------
class TestFaultInvariantTampering:
    """Each invariant added for the fault-injection subsystem fires when the
    matching state is tampered with mid-run on a real rig."""

    def _run_with_corruption(self, corrupt, opt=None):
        handle = install_checker(SimSanitizer)
        try:
            sim, machine, clients, senders = build_stream_rig(
                fast_config(), opt or OptimizationConfig.optimized()
            )
            sim.run(until=0.01)  # healthy warm-up under the sanitizer
            corrupt(machine)
            sim.run(until=0.02)
        finally:
            uninstall_checker(SimSanitizer)

    def test_link_frame_conservation_tamper_caught(self):
        def corrupt(machine):
            machine.links[0].stats.frames_delivered += 3

        with pytest.raises(InvariantViolation, match="link frame conservation"):
            self._run_with_corruption(corrupt)

    def test_link_negative_in_flight_caught(self):
        def corrupt(machine):
            link = machine.links[0]
            # Keep the conservation sum balanced so the dedicated negative-
            # in-flight check is the one that fires.
            delta = link.in_flight + 2
            link.in_flight = -2
            link.stats.frames_delivered += delta

        with pytest.raises(InvariantViolation, match="in-flight frame count"):
            self._run_with_corruption(corrupt)

    def test_driver_reset_conservation_tamper_caught(self):
        def corrupt(machine):
            machine.drivers[0].stats.rx_packets += 5

        with pytest.raises(InvariantViolation, match="driver/reset packet conservation"):
            self._run_with_corruption(corrupt)

    def test_driver_reset_drop_tamper_caught(self):
        def corrupt(machine):
            # A reset that "dropped" packets the ring never drained.
            machine.drivers[0].stats.rx_dropped_reset += 2

        with pytest.raises(InvariantViolation, match="driver/reset packet conservation"):
            self._run_with_corruption(corrupt)

    def test_governor_transition_tamper_caught(self):
        def corrupt(machine):
            machine.governors[0].stats.enters += 1  # flag no longer matches

        with pytest.raises(InvariantViolation, match="transition accounting"):
            self._run_with_corruption(corrupt, opt=OptimizationConfig.resilient())

    # The EWMA/counter tampers below self-heal within a few observed
    # packets on a live rig (the decay pulls the rate back into range
    # before the next deep audit), so they use the fake-machine harness
    # where nothing races the audit.
    def test_governor_rate_escape_caught(self):
        from repro.faults.degradation import CoalesceGovernor

        sim, _sanitizer, machine = make_sanitized()
        gov = CoalesceGovernor()
        machine.governors = [gov]
        fire(sim, 4)  # clean audit first
        gov.rate = 1.5
        with pytest.raises(InvariantViolation, match="EWMA"):
            fire(sim, 4)

    def test_governor_disorder_count_tamper_caught(self):
        from repro.faults.degradation import CoalesceGovernor

        sim, _sanitizer, machine = make_sanitized()
        gov = CoalesceGovernor()
        machine.governors = [gov]
        fire(sim, 4)
        gov.stats.disorder_events = gov.stats.packets_seen + 10
        with pytest.raises(InvariantViolation, match="disorder"):
            fire(sim, 4)

    def test_aggregator_pool_drop_tamper_caught(self):
        def corrupt(machine):
            machine.kernel.aggregator.stats.dropped_no_buffer += 3

        with pytest.raises(InvariantViolation, match="aggregation segment conservation"):
            self._run_with_corruption(corrupt)

    def test_governor_sort_boundary_tamper_caught(self):
        def corrupt(machine):
            machine.governors[0].stats.sort_enters += 1  # mode no longer matches

        with pytest.raises(InvariantViolation, match="sort-boundary accounting"):
            self._run_with_corruption(
                corrupt, opt=OptimizationConfig.resilient(repair=True)
            )


# ----------------------------------------------------------------------
# reorder-repair audits: each fires on the matching tampered state
# ----------------------------------------------------------------------
class TestRepairInvariantTampering:
    """The six repair-buffer audits (per-flow bound, reuse-after-free,
    sorted order, release monotonicity, deadline, conservation) each trip
    on exactly the tamper they guard against.  Hold-state tampers use
    fabricated flows on the fake-machine harness — on a live rig in-order
    drains empty the buffer faster than the deep-audit cadence; the
    conservation tamper runs end to end on a real repair-enabled rig."""

    def _repair_rig(self):
        from repro.core.config import RepairConfig
        from repro.faults.degradation import CoalesceGovernor
        from repro.faults.repair import ReorderRepairBuffer

        sim, _sanitizer, machine = make_sanitized()
        repair = ReorderRepairBuffer(
            cpu=None,
            config=RepairConfig(depth=4),
            governor=CoalesceGovernor(),
            sink=lambda pkts: None,
            name="fab-repair",
        )
        machine.repairs = [repair]
        fire(sim, 4)  # clean audit first
        return sim, repair

    @staticmethod
    def _park(repair, seqs, expected=None, deadline=None):
        """Fabricate one flow holding ``seqs``, counters kept consistent."""
        from repro.faults.repair import _FlowState

        class _Tcp:
            def __init__(self, seq):
                self.seq = seq

        class _Held:
            def __init__(self, seq):
                self.tcp = _Tcp(seq)

        st = _FlowState()
        st.held = [(0.0, _Held(seq)) for seq in seqs]
        st.expected = expected
        st.deadline = deadline
        repair.flows["tamper-flow"] = st
        repair.occupancy = len(st.held)
        repair.stats.frames_in = repair.occupancy
        return st

    def test_overfull_flow_caught(self):
        sim, repair = self._repair_rig()
        self._park(repair, [1000, 2000, 3000, 4000, 5000])  # depth is 4
        with pytest.raises(InvariantViolation, match="over the configured depth"):
            fire(sim, 4)

    def test_unsorted_hold_buffer_caught(self):
        sim, repair = self._repair_rig()
        self._park(repair, [2000, 1000])
        with pytest.raises(InvariantViolation, match="out of sequence order"):
            fire(sim, 4)

    def test_release_point_regression_caught(self):
        sim, repair = self._repair_rig()
        # A held frame at or behind ``expected`` would be released behind
        # the flow's release point — duplicate/regressing delivery.
        self._park(repair, [1000, 2000], expected=1500)
        with pytest.raises(InvariantViolation, match="release order would regress"):
            fire(sim, 4)

    def test_overdue_hold_caught(self):
        sim, repair = self._repair_rig()
        st = self._park(repair, [1000], deadline=-1.0)  # expired before now
        assert not st.release_pending
        with pytest.raises(InvariantViolation, match="parked past its deadline"):
            fire(sim, 4)

    def test_freelisted_held_frame_caught(self):
        """A frame the repair stage still parks must not be on the packet
        slab's freelist, where the slab would re-stamp it for another flow."""
        from repro.buffers.slab import PacketSlab
        from repro.net.packet import make_data_segment

        sim, repair = self._repair_rig()
        st = self._park(repair, [1000])
        pkt = make_data_segment(1, 2, 3, 4, seq=1000, ack=0, payload_len=100)
        assert PacketSlab().release(pkt)
        st.held = [(0.0, pkt)]
        with pytest.raises(InvariantViolation, match="hold buffer: holds a packet that is on the slab freelist"):
            fire(sim, 4)

    def test_occupancy_counter_tamper_caught(self):
        sim, repair = self._repair_rig()
        self._park(repair, [1000])
        repair.occupancy += 1
        repair.stats.frames_in += 1  # keep frame conservation consistent
        with pytest.raises(InvariantViolation, match="disagrees with"):
            fire(sim, 4)

    def test_frame_conservation_tamper_caught_end_to_end(self):
        handle = install_checker(SimSanitizer)
        try:
            sim, machine, clients, senders = build_stream_rig(
                fast_config(), OptimizationConfig.resilient(repair=True)
            )
            sim.run(until=0.01)  # healthy warm-up under the sanitizer
            machine.repairs[0].stats.frames_in += 1
            with pytest.raises(InvariantViolation, match="conservation broken"):
                sim.run(until=0.02)
        finally:
            uninstall_checker(SimSanitizer)
