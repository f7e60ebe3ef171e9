"""The cross-CPU ownership race detector (repro.analysis.racecheck).

Three layers of coverage:

* engine: the after-event hook chain the checker shares with the sanitizer;
* unit: reconciliation semantics (charged / handed-off / uncovered) driven
  through a bare RaceChecker with synthetic accesses;
* integration: race-checked runs of the mq4 and UP wire points match their
  pins, the checker actually observes cross-CPU traffic under RSS, and a
  deliberately uncharged cross-queue access (zeroed CrossCpuCostModel)
  raises a RaceReport carrying both sim-time stacks.
"""

from __future__ import annotations

import pytest

from repro.analysis import racecheck
from repro.analysis.racecheck import RaceChecker, RaceReport
from repro.core.config import OptimizationConfig
from repro.host.client import ClientHost
from repro.host.configs import linux_smp_config
from repro.host.machine import ReceiverMachine
from repro.mq.costs import CrossCpuCostModel
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource
from repro.workloads.stream import run_stream_experiment

from tests.conftest import fast_config
from tests.test_wire_digest import assert_matches_pin, run_point

SERVER = ip_from_str("10.0.0.1")


@pytest.fixture(autouse=True)
def _fresh_racecheck_state():
    racecheck.uninstall()
    yield
    racecheck.uninstall()


def build_tampered_rig(queues=2, n_conns=10, nbytes=50_000):
    """A multi-queue rig whose CrossCpuCostModel charges nothing: every
    cross-CPU socket touch is a race the checker must catch."""
    sim = Simulator()
    machine = ReceiverMachine(
        sim, fast_config(n_nics=1), OptimizationConfig.optimized(),
        queues=queues, steering="rss", ip=SERVER,
        cross=CrossCpuCostModel(
            cache_line_bounce_cycles=0.0, ipi_cycles=0.0,
            remote_wakeup_cycles=0.0,
        ),
    )
    machine.listen(5001)
    client = ClientHost(sim, ip_from_str("10.0.1.1"))
    machine.add_client(client)
    for j in range(n_conns):
        sock = client.connect(SERVER, 5001, config=TcpConfig())
        sock.conn.attach_source(InfiniteSource(seed=11 + j, limit_bytes=nbytes))
    return sim, machine


# ----------------------------------------------------------------------
# engine: the shared after-event hook chain
# ----------------------------------------------------------------------
class TestAfterEventHooks:
    def test_hooks_chain_in_order(self):
        sim = Simulator()
        calls = []
        sim.push_after_event_hook(lambda: calls.append("a"))
        sim.push_after_event_hook(lambda: calls.append("b"))
        sim.post(0.0, lambda: None)
        sim.run()
        assert calls == ["a", "b"]

    def test_remove_leaves_other_hooks(self):
        sim = Simulator()
        calls = []
        first = lambda: calls.append("a")  # noqa: E731
        sim.push_after_event_hook(first)
        sim.push_after_event_hook(lambda: calls.append("b"))
        sim.remove_after_event_hook(first)
        sim.post(0.0, lambda: None)
        sim.run()
        assert calls == ["b"]

    def test_push_is_idempotent_per_hook(self):
        sim = Simulator()
        calls = []
        hook = lambda: calls.append("a")  # noqa: E731
        sim.push_after_event_hook(hook)
        sim.push_after_event_hook(hook)
        sim.post(0.0, lambda: None)
        sim.run()
        assert calls == ["a"]

    def test_clear_removes_everything(self):
        sim = Simulator()
        calls = []
        sim.push_after_event_hook(lambda: calls.append("a"))
        sim.clear_after_event_hook()
        sim.post(0.0, lambda: None)
        sim.run()
        assert calls == []
        assert sim._after_event is None  # fast path restored


# ----------------------------------------------------------------------
# unit: reconciliation semantics
# ----------------------------------------------------------------------
class Obj:
    pass


class TestReconciliation:
    def _checker(self):
        sim = Simulator()
        return sim, RaceChecker(sim)

    def test_uncovered_foreign_access_raises_with_both_stacks(self):
        sim, checker = self._checker()
        obj = Obj()
        checker.tag(obj, 0, "q0 ring")
        sim.post(0.0, lambda: checker._note(obj, "drain", 0, 1, "q0 ring"))
        with pytest.raises(RaceReport) as exc:
            sim.run()
        message = str(exc.value)
        assert "cross-CPU race" in message
        assert "access stack" in message
        assert "ownership established" in message
        assert checker.stats.violations == 1

    def test_own_cpu_access_is_free(self):
        sim, checker = self._checker()
        obj = Obj()
        checker.tag(obj, 1, "q1 ring")
        sim.post(0.0, lambda: checker._note(obj, "drain", 1, 1, "q1 ring"))
        sim.run()
        assert checker.stats.foreign_accesses == 0

    def test_charge_on_accessor_covers(self):
        sim, checker = self._checker()
        obj = Obj()
        checker.tag(obj, 0, "q0 ring")

        def access():
            checker._xcpu_last[1] = sim._events_fired  # accessor charged
            checker._note(obj, "drain", 0, 1, "q0 ring")

        sim.post(0.0, access)
        sim.run()
        assert checker.stats.covered_at_note == 1
        assert checker.stats.violations == 0

    def test_charge_on_owner_covers(self):
        sim, checker = self._checker()
        obj = Obj()

        def access():
            checker._xcpu_last[0] = sim._events_fired  # owner charged
            checker._note(obj, "drain", 0, 1, "q0 ring")

        sim.post(0.0, access)
        sim.run()
        assert checker.stats.covered_at_note == 1

    def test_charge_later_in_same_event_reconciles(self):
        sim, checker = self._checker()
        obj = Obj()

        def access():
            checker._note(obj, "drain", 0, 1, "q0 ring")
            checker._xcpu_last[1] = sim._events_fired  # charge lands after

        sim.post(0.0, access)
        sim.run()
        assert checker.stats.reconciled_in_event == 1
        assert checker.stats.violations == 0

    def test_stale_charge_from_earlier_event_does_not_cover(self):
        sim, checker = self._checker()
        obj = Obj()
        sim.post(0.0, lambda: checker._xcpu_last.__setitem__(1, sim._events_fired))
        sim.post(1.0, lambda: checker._note(obj, "drain", 0, 1, "q0 ring"))
        with pytest.raises(RaceReport):
            sim.run()

    def test_handoff_grants_grace_and_transfers_ownership(self):
        sim, checker = self._checker()
        obj = Obj()
        checker.tag(obj, 0, "lro ctx")

        def migrate():
            checker.handoff(obj, 1)
            checker._note(obj, "migrate", 0, 1, "lro ctx")

        sim.post(0.0, migrate)
        # After the handoff event, CPU 1 owns the object: own-CPU access.
        sim.post(1.0, lambda: checker._note(obj, "drain", checker._owner_of(obj), 1, "lro ctx"))
        sim.run()
        assert checker.stats.handoffs == 1
        assert checker.stats.violations == 0
        assert checker._owner_of(obj) == 1

    def test_detach_stops_checking(self):
        sim, checker = self._checker()
        obj = Obj()
        checker.detach()
        sim.post(0.0, lambda: checker._note(obj, "drain", 0, 1, "q0 ring"))
        sim.run()  # pending never reconciled, never raised
        assert checker.stats.events_checked == 0


# ----------------------------------------------------------------------
# install / uninstall
# ----------------------------------------------------------------------
def _mq_machine(sim):
    return ReceiverMachine(
        sim, fast_config(n_nics=1), OptimizationConfig.optimized(), queues=2, ip=SERVER
    )


class TestInstall:
    def test_install_uninstall_restores_classes(self):
        handle = racecheck.install()
        checked = Simulator()
        machine = _mq_machine(checked)
        assert [c.sim for c in handle.checkers] == [checked]
        assert handle.checkers[0].machines == [machine]
        racecheck.uninstall(handle)
        assert not racecheck.is_installed()
        # A simulator built after uninstall() gets no checker.
        _mq_machine(Simulator())
        assert [c.sim for c in handle.checkers] == [checked]

    @pytest.mark.parametrize("first", ["sanitizer", "racecheck"])
    def test_out_of_order_uninstall_keeps_the_other_checker(self, first):
        from repro.analysis import sanitizer

        modules = {"sanitizer": sanitizer, "racecheck": racecheck}
        second = "racecheck" if first == "sanitizer" else "sanitizer"

        def observers(name, handle):
            return handle.sanitizers if name == "sanitizer" else handle.checkers

        handles = {name: modules[name].install() for name in (first, second)}
        try:
            # Not last-in-first-out: the first-installed checker goes first.
            modules[first].uninstall(handles[first])
            assert not modules[first].is_installed()
            assert modules[second].is_installed()
            sim = Simulator()
            machine = _mq_machine(sim)
            remaining = observers(second, handles[second])
            assert remaining and remaining[-1].sim is sim
            assert remaining[-1].machines == [machine]
            assert all(o.sim is not sim for o in observers(first, handles[first]))
        finally:
            for name in (first, second):
                modules[name].uninstall(handles[name])

    def test_install_is_idempotent(self):
        handle = racecheck.install()
        assert racecheck.install() is handle
        racecheck.uninstall(handle)


# ----------------------------------------------------------------------
# integration: the real multi-queue rig
# ----------------------------------------------------------------------
def _run_mq(**overrides):
    kwargs = dict(
        queues=4, steering="rss", n_connections=50, duration=0.02, warmup=0.01
    )
    kwargs.update(overrides)
    result = run_stream_experiment(
        linux_smp_config(), OptimizationConfig.optimized(), **kwargs
    )
    return (
        result.throughput_mbps,
        sorted(result.breakdown.items()),
        result.events_fired,
    )


class TestCleanRuns:
    def test_rss_run_is_clean_and_checker_sees_cross_traffic(self):
        handle = racecheck.install()
        row = _run_mq()
        stats = [c.stats for c in handle.checkers if c.stats.accesses_noted]
        assert len(stats) == 1
        s = stats[0]
        # RSS steering guarantees cross-CPU socket traffic; every one of
        # those accesses must have been covered by an XCPU charge.
        assert s.foreign_accesses > 0
        assert s.covered_at_note + s.reconciled_in_event == s.foreign_accesses
        assert s.violations == 0
        assert s.objects_tagged > 0
        assert s.events_checked > 0
        assert dict(row[1]).get("xcpu", 0.0) > 0.0

    # The checker consumes no cycles and schedules nothing, so a checked
    # run of a wire point must match its pin.  Each frame's time follows
    # from the cycle charges before it, so a charge the checker added would
    # move the digest; an event it scheduled would move ``events_fired``.
    def _checked_wire_point(self, label):
        handle = racecheck.install()
        try:
            got = run_point(label)
            stats = [c.stats for c in handle.checkers if c.stats.accesses_noted]
        finally:
            racecheck.uninstall(handle)
        assert_matches_pin(label, got)
        return stats

    def test_mq4_wire_point_matches_pin_with_racecheck(self):
        stats = self._checked_wire_point("smp/mq4-rss-mem/opt")
        assert len(stats) == 1
        assert stats[0].foreign_accesses > 0
        assert stats[0].violations == 0

    def test_up_wire_point_matches_pin_with_racecheck(self):
        self._checked_wire_point("up/opt")

    def test_coexists_with_sanitizer(self):
        from repro.analysis import sanitizer

        rc_handle = racecheck.install()
        san_handle = sanitizer.install()
        try:
            _run_mq(n_connections=20)
            rc_stats = [c.stats for c in rc_handle.checkers if c.stats.accesses_noted]
            san_stats = [s.stats for s in san_handle.sanitizers if s.stats.events_checked]
            assert rc_stats and rc_stats[0].violations == 0
            assert san_stats and san_stats[0].connection_checks > 0
        finally:
            sanitizer.uninstall(san_handle)
            racecheck.uninstall(rc_handle)


class TestTamper:
    def test_uncharged_cross_queue_access_raises(self):
        racecheck.install()
        sim, machine = build_tampered_rig()
        with pytest.raises(RaceReport) as exc:
            sim.run(until=5.0)
        message = str(exc.value)
        assert "cross-CPU race" in message
        assert "no CrossCpuCostModel charge" in message
        # Both sim-time stacks are present and point into the product code.
        assert "access stack" in message
        assert "ownership established" in message
        assert "kernel.py" in message

    def test_tampered_rig_runs_without_checker(self):
        # Sanity: the tamper is invisible without the checker (that is the
        # point — only behaviour-neutral observation catches it).
        sim, machine = build_tampered_rig()
        sim.run(until=5.0)


class TestOwnershipMap:
    def test_static_table_matches_queue_layout(self):
        sim = Simulator()
        machine = ReceiverMachine(
            sim, fast_config(n_nics=1), OptimizationConfig.optimized(),
            queues=4, steering="rss", ip=SERVER,
        )
        client = ClientHost(sim, ip_from_str("10.0.1.1"))
        machine.add_client(client)
        table = dict(machine.ownership_map())
        for q in range(4):
            assert table[f"{machine.nics[0].name}.q{q} ring"] == q
            assert table[f"{machine.drivers[q].name} softirq"] == q
        # One aggregation engine per queue, owned by that queue's CPU.
        aggr_owners = sorted(
            owner for name, owner in table.items() if "aggr" in name
        )
        assert aggr_owners == [0, 1, 2, 3]
