"""Whole-program simlint: the ProgramIndex and the three ownership rules.

Module-rule fixtures live in tests/test_simlint.py; this file covers the
cross-module layer — symbol table / call graph construction, and firing
plus stand-down fixtures for ``cross-cpu-write``, ``uncharged-cycles``
and ``slab-escape``.
"""

from __future__ import annotations

import textwrap

from repro.analysis.simlint import lint_source
from repro.analysis.simlint.cli import main as simlint_main
from repro.analysis.simlint.core import ModuleContext
from repro.analysis.simlint.program import ProgramIndex, module_name_of
from repro.analysis.simlint.rules import PROGRAM_RULES
from repro.analysis.simlint.runner import default_rules, lint_paths

MQ_RELNAME = "src/repro/mq/fixture.py"


def program_fired(source: str, relname: str = MQ_RELNAME):
    violations = lint_source(
        textwrap.dedent(source),
        path=relname,
        relname=relname,
        rules=list(PROGRAM_RULES),
    )
    return [v.rule for v in violations], violations


def assert_fires(rule_id: str, source: str, **kwargs) -> None:
    fired, violations = program_fired(source, **kwargs)
    assert rule_id in fired, f"{rule_id} did not fire; got {fired}"


def assert_clean(rule_id: str, source: str, **kwargs) -> None:
    fired, violations = program_fired(source, **kwargs)
    assert rule_id not in fired, f"{rule_id} fired unexpectedly: {violations}"


def make_ctx(relname: str, source: str) -> ModuleContext:
    return ModuleContext(
        path=relname, source=textwrap.dedent(source), relname=relname
    )


# ----------------------------------------------------------------------
# ProgramIndex mechanics
# ----------------------------------------------------------------------
class TestModuleNameOf:
    def test_src_tree(self):
        assert module_name_of("src/repro/mq/kernel.py") == "repro.mq.kernel"

    def test_package_init(self):
        assert module_name_of("src/repro/nic/__init__.py") == "repro.nic"

    def test_outside_repro(self):
        assert module_name_of("scratch/fix.py") == "scratch.fix"


class TestProgramIndex:
    def _two_module_index(self) -> ProgramIndex:
        kernel = make_ctx(
            "src/repro/mq/fakekernel.py",
            """
            class BaseKernel:
                def deliver(self, sock):
                    self.charge()
                def charge(self):
                    self.cpu.consume(10, "proto")

            class FastKernel(BaseKernel):
                def charge(self):
                    self.cpu.consume(1, "proto")
            """,
        )
        driver = make_ctx(
            "src/repro/driver/fakedriver.py",
            """
            class FakeDriver:
                def isr(self):
                    self.kernel.deliver(self.sock)
            """,
        )
        return ProgramIndex([kernel, driver])

    def test_symbols_indexed(self):
        index = self._two_module_index()
        assert "repro.mq.fakekernel.BaseKernel.deliver" in index.functions
        assert "repro.driver.fakedriver.FakeDriver.isr" in index.functions
        assert {c.name for c in index.classes.values()} == {
            "BaseKernel",
            "FastKernel",
            "FakeDriver",
        }

    def test_self_call_resolves_through_mro_and_overrides(self):
        index = self._two_module_index()
        deliver = index.functions["repro.mq.fakekernel.BaseKernel.deliver"]
        resolved = {f.qualname for f in index.resolve_self_call(deliver, "charge")}
        # Base method plus the subclass override: ``self`` may be either.
        assert resolved == {
            "repro.mq.fakekernel.BaseKernel.charge",
            "repro.mq.fakekernel.FastKernel.charge",
        }

    def test_duck_call_crosses_modules(self):
        index = self._two_module_index()
        isr = index.functions["repro.driver.fakedriver.FakeDriver.isr"]
        assert "repro.mq.fakekernel.BaseKernel.deliver" in isr.edges

    def test_reachability_includes_transitive_callees(self):
        index = self._two_module_index()
        reached = {
            f.qualname
            for f in index.reachable(["repro.driver.fakedriver.FakeDriver.isr"])
        }
        assert "repro.mq.fakekernel.BaseKernel.charge" in reached
        assert "repro.mq.fakekernel.FastKernel.charge" in reached

    def test_consume_flag_extracted(self):
        index = self._two_module_index()
        charge = index.functions["repro.mq.fakekernel.BaseKernel.charge"]
        assert charge.calls_consume

    def test_unresolved_method_call_marks_caller(self):
        ctx = make_ctx(
            "src/repro/mq/fakekernel.py",
            """
            class K:
                def run(self):
                    self.mystery_trampoline()
            """,
        )
        index = ProgramIndex([ctx])
        assert index.functions["repro.mq.fakekernel.K.run"].unresolved_calls

    def test_functions_in_filters_by_path(self):
        index = self._two_module_index()
        mq = {f.qualname for f in index.functions_in("/mq/")}
        assert all(q.startswith("repro.mq.") for q in mq)
        assert mq  # non-empty


# ----------------------------------------------------------------------
# cross-cpu-write
# ----------------------------------------------------------------------
CROSS_CPU_BAD = """
    class SoftirqSide:
        def softirq_rx(self):
            self.kernel.enter_cpu(0)
            self.kernel.deliver(self.sock)

    class AppSide:
        def app_drain(self):
            self.kernel.enter_cpu(1)
            self.kernel.deliver(self.sock)

    class MqKernel:
        def deliver(self, sock):
            sock.bytes_ready = 1
"""


class TestCrossCpuWrite:
    def test_shared_write_without_charge_fires(self):
        fired, violations = program_fired(CROSS_CPU_BAD)
        assert "cross-cpu-write" in fired
        [v] = [v for v in violations if v.rule == "cross-cpu-write"]
        assert "sock.bytes_ready" in v.message
        assert "CrossCpuCostModel" in v.message

    def test_charged_write_clean(self):
        assert_clean("cross-cpu-write", """
            class SoftirqSide:
                def softirq_rx(self):
                    self.kernel.enter_cpu(0)
                    self.kernel.deliver(self.sock)

            class AppSide:
                def app_drain(self):
                    self.kernel.enter_cpu(1)
                    self.kernel.deliver(self.sock)

            class MqKernel:
                def deliver(self, sock):
                    self.cpu.consume(self.cross.bounce_cycles(), "xcpu")
                    sock.bytes_ready = 1
        """)

    def test_single_context_clean(self):
        # Only the softirq side reaches deliver: one CPU context, no bounce.
        assert_clean("cross-cpu-write", """
            class SoftirqSide:
                def softirq_rx(self):
                    self.kernel.enter_cpu(0)
                    self.kernel.deliver(self.sock)

            class MqKernel:
                def deliver(self, sock):
                    sock.bytes_ready = 1
        """)

    def test_fresh_object_write_clean(self):
        # Construction-time writes establish ownership, not a race.
        assert_clean("cross-cpu-write", """
            class SoftirqSide:
                def softirq_rx(self):
                    self.kernel.enter_cpu(0)
                    self.kernel.accept()

            class AppSide:
                def app_drain(self):
                    self.kernel.enter_cpu(1)
                    self.kernel.accept()

            class MqKernel:
                def accept(self):
                    sock = Socket()
                    sock.app_cpu_index = 0
                    return sock

            class Socket:
                def __init__(self):
                    self.app_cpu_index = None
        """)

    def test_outside_mq_exempt(self):
        # Same shape, but outside the rule's scope (mq/ and host/kernel.py).
        assert_clean(
            "cross-cpu-write",
            CROSS_CPU_BAD,
            relname="src/repro/analysis/fixture.py",
        )

    def test_host_kernel_patrolled(self):
        # The one kernel that switches CPUs lives in host/kernel.py.
        assert_fires(
            "cross-cpu-write", CROSS_CPU_BAD, relname="src/repro/host/kernel.py"
        )

    def test_line_suppression_applies(self):
        assert_clean("cross-cpu-write", """
            class SoftirqSide:
                def softirq_rx(self):
                    self.kernel.enter_cpu(0)
                    self.kernel.deliver(self.sock)

            class AppSide:
                def app_drain(self):
                    self.kernel.enter_cpu(1)
                    self.kernel.deliver(self.sock)

            class MqKernel:
                def deliver(self, sock):
                    sock.bytes_ready = 1  # simlint: allow(cross-cpu-write) -- charged by caller
        """)


# ----------------------------------------------------------------------
# uncharged-cycles
# ----------------------------------------------------------------------
class TestUnchargedCycles:
    def test_submitted_isr_without_consume_fires(self):
        fired, violations = program_fired("""
            class Driver:
                def kick(self):
                    self.cpu.submit(self._isr)
                def _isr(self):
                    self.stats.drops = 1
        """)
        assert "uncharged-cycles" in fired
        [v] = [v for v in violations if v.rule == "uncharged-cycles"]
        assert "_isr" in v.message

    def test_isr_reaching_consume_clean(self):
        assert_clean("uncharged-cycles", """
            class Driver:
                def kick(self):
                    self.cpu.submit(self._isr)
                def _isr(self):
                    self.stats.drops = 1
                    self.cpu.consume(100, "irq")
        """)

    def test_consume_via_callee_clean(self):
        assert_clean("uncharged-cycles", """
            class Driver:
                def kick(self):
                    self.cpu.submit(self._isr)
                def _isr(self):
                    self.stats.drops = 1
                    self._charge()
                def _charge(self):
                    self.cpu.consume(100, "irq")
        """)

    def test_softirq_body_fires(self):
        assert_fires("uncharged-cycles", """
            class Kernel:
                def softirq_aggregated(self):
                    self.backlog.append(1)
        """)

    def test_pure_handler_clean(self):
        # Mutates nothing: pure bookkeeping no-op, nothing to charge.
        assert_clean("uncharged-cycles", """
            class Driver:
                def kick(self):
                    self.cpu.submit(self._isr)
                def _isr(self):
                    return None
        """)

    def test_unresolved_callee_stands_down(self):
        # ``self.fn()`` may charge cycles somewhere we can't see: silence.
        assert_clean("uncharged-cycles", """
            class Driver:
                def kick(self):
                    self.cpu.submit(self._isr)
                def _isr(self):
                    self.stats.drops = 1
                    self.dynamic_trampoline()
        """)


# ----------------------------------------------------------------------
# slab-escape
# ----------------------------------------------------------------------
class TestSlabEscape:
    def test_use_after_release_fires(self):
        fired, violations = program_fired("""
            class Demux:
                def drop(self, pkt):
                    self.packet_slab.release(pkt)
                    return pkt.wire_len
        """)
        assert "slab-escape" in fired
        [v] = [v for v in violations if v.rule == "slab-escape"]
        assert "recycled" in v.message

    def test_release_loop_idiom_clean(self):
        assert_clean("slab-escape", """
            class Demux:
                def drop_all(self, pkts):
                    for pkt in pkts:
                        self.packet_slab.release(pkt)
        """)

    def test_rebinding_after_release_clean(self):
        assert_clean("slab-escape", """
            class Demux:
                def recycle(self, pkt):
                    self.packet_slab.release(pkt)
                    pkt = self.packet_slab.acquire()
                    return pkt.wire_len
        """)

    def test_use_before_release_clean(self):
        assert_clean("slab-escape", """
            class Demux:
                def drop(self, pkt):
                    size = pkt.wire_len
                    self.packet_slab.release(pkt)
                    return size
        """)

    def test_non_slab_release_ignored(self):
        assert_clean("slab-escape", """
            class Port:
                def unlock(self, lock):
                    self.lock_mgr.release(lock)
                    return lock.owner
        """)

    def test_bare_slab_receiver_fires(self):
        assert_fires("slab-escape", """
            def free(slab, pkt):
                slab.release(pkt)
                return pkt.payload_len
        """)


# ----------------------------------------------------------------------
# the real tree, whole-program
# ----------------------------------------------------------------------
class TestWholeProgramOnRepo:
    def test_src_repro_is_clean_whole_program(self):
        violations = lint_paths(
            ["src/repro"], rules=default_rules(whole_program=True)
        )
        assert violations == [], [v.format() for v in violations]

    def test_cli_whole_program_exit_zero(self):
        assert simlint_main(["--whole-program", "src/repro"]) == 0
