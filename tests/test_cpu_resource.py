"""The CPU as a serial resource: task ordering, time accounting, views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.cpu.locks import LockModel
from repro.cpu.view import CpuView
from repro.obs import runtime as obs_runtime
from repro.obs.ledger import CycleLedger
from repro.sim.engine import Simulator
from repro.xen.costs import XenCostModel
from repro.xen.machine import GUEST_CATEGORY_MAP


def test_consume_advances_busy_until(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    cpu.consume(1000, Category.RX)
    assert cpu.busy_until == pytest.approx(1e-6)
    assert cpu.busy_cycles == 1000
    assert cpu.profiler.cycles[Category.RX] == 1000


def test_tasks_run_fifo_and_serialize(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    log = []

    def task(name, cycles):
        log.append((name, sim.now))
        cpu.consume(cycles, Category.MISC)

    cpu.submit(task, "a", 1000)
    cpu.submit(task, "b", 1000)
    sim.run()
    # b starts when a's cycles complete.
    assert log[0] == ("a", 0.0)
    assert log[1][0] == "b"
    assert log[1][1] == pytest.approx(1e-6)


def test_task_submitted_while_busy_waits(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    times = []
    cpu.submit(lambda: cpu.consume(5000, Category.MISC))
    sim.schedule(1e-6, lambda: cpu.submit(lambda: times.append(sim.now)))
    sim.run()
    assert times[0] == pytest.approx(5e-6)


def test_defer_schedules_at_completion_time(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    fired = []

    def task():
        cpu.consume(2000, Category.TX)
        cpu.defer(lambda: fired.append(sim.now))

    cpu.submit(task)
    sim.run()
    assert fired[0] == pytest.approx(2e-6)


def test_lock_inflation_applied_at_consume(sim):
    locks = LockModel(enabled=True)
    cpu = Cpu(sim, freq_hz=1e9, locks=locks)
    cpu.consume(100, Category.RX)
    assert cpu.profiler.cycles[Category.RX] == pytest.approx(162.0)
    cpu.consume(100, Category.BUFFER)
    assert cpu.profiler.cycles[Category.BUFFER] == pytest.approx(100.0)


def test_zero_or_negative_consume_is_noop(sim):
    cpu = Cpu(sim)
    cpu.consume(0, Category.RX)
    cpu.consume(-5, Category.RX)
    assert cpu.busy_cycles == 0


def test_idle_reflects_state(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    assert cpu.idle()
    cpu.submit(lambda: cpu.consume(1000, Category.MISC))
    assert not cpu.idle()
    sim.run(until=1e-5)  # past busy_until so the clock catches up
    assert cpu.idle()


def test_utilization_window(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    start_cycles = cpu.busy_cycles
    cpu.consume(5e5, Category.MISC)
    assert cpu.utilization(start_cycles, 1e-3) == pytest.approx(0.5)


# ---------------------------------------------------------------- views
def test_view_relabels_categories(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    view = CpuView(cpu, category_map={Category.RX: Category.TCP_RX})
    view.consume(100, Category.RX)
    view.consume(50, Category.TX)
    assert cpu.profiler.cycles[Category.TCP_RX] == 100
    assert cpu.profiler.cycles[Category.TX] == 50
    assert Category.RX not in cpu.profiler.cycles


def test_view_scales_costs(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    view = CpuView(cpu, scale_map={Category.RX: 1.5})
    view.consume(100, Category.RX)
    view.consume(100, Category.PER_BYTE)
    assert cpu.profiler.cycles[Category.RX] == pytest.approx(150.0)
    assert cpu.profiler.cycles[Category.PER_BYTE] == pytest.approx(100.0)


def test_views_share_the_underlying_serial_resource(sim):
    cpu = Cpu(sim, freq_hz=1e9)
    a = CpuView(cpu, name="a")
    b = CpuView(cpu, name="b")
    a.consume(1000, Category.RX)
    b.consume(1000, Category.TX)
    assert cpu.busy_cycles == 2000
    assert cpu.busy_until == pytest.approx(2e-6)


def test_view_passthrough_properties(sim):
    cpu = Cpu(sim, freq_hz=2e9)
    view = CpuView(cpu)
    assert view.freq_hz == 2e9
    assert view.sim is sim
    assert view.profiler is cpu.profiler
    assert view.costs is cpu.costs


# ---------------------------------------------------------------- exact charging
class _ReferenceCpu:
    """The arithmetic ``Cpu.consume`` had before each CPU resolved its
    categories once: the reference the charging path must equal bit for
    bit."""

    def __init__(self, cpu, ledger):
        self.name = cpu.name
        self.sim = cpu.sim
        self.freq_hz = cpu.freq_hz
        self.locks = cpu.locks
        self.ledger = ledger
        self.busy_cycles = 0.0
        self.busy_until = 0.0
        #: category -> cycles, in first-charge order.
        self.cycles = {}

    def consume(self, cycles, category):
        if cycles <= 0:
            return
        if self.locks.enabled:
            cycles = cycles * self.locks.factors.get(category, 1.0)
        self.cycles[category] = self.cycles.get(category, 0.0) + cycles
        self.busy_cycles += cycles
        self.busy_until += cycles / self.freq_hz
        if self.ledger is not None:
            self.ledger.charge(self, cycles, category)


class _ReferenceView:
    """``CpuView.consume`` before per-view resolution, over a reference CPU."""

    def __init__(self, ref, category_map, scale_map):
        self.ref = ref
        self.category_map = category_map
        self.scale_map = scale_map

    def consume(self, cycles, category):
        if self.scale_map:
            cycles = cycles * self.scale_map.get(category, 1.0)
        if self.category_map:
            category = self.category_map.get(category, category)
        self.ref.consume(cycles, category)


#: Native categories, plus two no profiler has seen before the run.
_CHARGE_CATEGORIES = (
    Category.RX, Category.TX, Category.BUFFER, Category.NON_PROTO, Category.DRIVER,
    Category.MISC, Category.AGGR, Category.PER_BYTE, "exact-test-late-a", "exact-test-late-b",
)
_CYCLES = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=20_000),
    st.floats(min_value=-1.0, max_value=1e6, allow_nan=False),
)


def _target(kind, sim):
    """(what the path charges, the CPU it lands on, the reference path)."""
    if kind == "up":
        cpu = Cpu(sim, freq_hz=3e9, locks=LockModel(enabled=False), name="up")
    else:
        cpu = Cpu(sim, freq_hz=2.4e9, locks=LockModel(enabled=kind == "smp"), name=kind)
    ledger = CycleLedger("reference") if cpu._led is not None else None
    ref = _ReferenceCpu(cpu, ledger)
    if kind != "xen":
        return cpu, cpu, ref, ref
    category_map = dict(GUEST_CATEGORY_MAP)
    scale_map = dict(XenCostModel().guest_scale)
    view = CpuView(cpu, category_map=category_map, scale_map=scale_map, name="guest")
    return view, cpu, _ReferenceView(ref, category_map, scale_map), ref


@pytest.mark.parametrize("ledger", [False, True], ids=["ledger_off", "ledger_on"])
@pytest.mark.parametrize("kind", ["up", "smp", "xen"])
@settings(max_examples=60, deadline=None)
@given(charges=st.lists(st.tuples(_CYCLES, st.sampled_from(_CHARGE_CATEGORIES)), min_size=1, max_size=60))
def test_charging_is_bit_identical_to_one_charge_arithmetic(kind, ledger, charges):
    """Any charge sequence leaves the CPU's clocks and profiler (values and
    first-charge order) ``==`` to the reference arithmetic, and the ledger's
    cells equal to a ledger fed by that reference."""
    obs.reset()
    try:
        if ledger:
            obs.configure(ledger=True)
        with obs_runtime.observe("exact") as o:
            path, cpu, ref_path, ref = _target(kind, Simulator())
        for cycles, category in charges:
            path.consume(cycles, category)
            ref_path.consume(cycles, category)
    finally:
        obs.reset()
    assert cpu.busy_cycles == ref.busy_cycles
    assert cpu.busy_until == ref.busy_until
    assert list(cpu.profiler.cycles.items()) == list(ref.cycles.items())
    if ledger:
        assert o.ledger.verify([cpu]) == []
        assert o.ledger.cells == ref.ledger.cells
        assert o.ledger.cat_float == ref.ledger.cat_float
        assert o.ledger.cpu_float == ref.ledger.cpu_float
