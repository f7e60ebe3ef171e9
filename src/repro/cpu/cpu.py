"""The CPU as a serial simulation resource.

A :class:`Cpu` executes *tasks* (Python callables representing ISR bodies,
softirq runs, syscall work) one at a time in FIFO order.  While a task runs
it calls :meth:`Cpu.consume` to charge cycles to a profiler category; the
consumed cycles advance the CPU's ``busy_until`` clock, so the *simulated
duration* of a task equals the cycles its routines charged.  Throughput
saturation, queueing delay, and utilization all fall out of this.

SMP lock inflation (:class:`~repro.cpu.locks.LockModel`) is applied at
consumption time, so calling code charges *nominal* uniprocessor cycles and
the configuration decides the real cost.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.cpu.costmodel import CostModel
from repro.cpu.locks import LockModel
from repro.cpu.profiler import _intern_category, Profiler
from repro.obs.runtime import active_ledger
from repro.sim.engine import Simulator


class Cpu:
    """A single serial processor with cycle accounting.

    Parameters
    ----------
    sim:
        Shared simulator.
    freq_hz:
        Clock frequency (the paper's server is a 3.0 GHz Xeon).
    costs:
        The cycle cost model routines consult.
    locks:
        SMP lock-inflation model (disabled for UP).
    name:
        Label for diagnostics.
    """

    def __init__(
        self,
        sim: Simulator,
        freq_hz: float = 3.0e9,
        costs: Optional[CostModel] = None,
        locks: Optional[LockModel] = None,
        name: str = "cpu0",
    ):
        self.sim = sim
        self.freq_hz = freq_hz
        self.costs = costs if costs is not None else CostModel()
        self.locks = locks if locks is not None else LockModel()
        self.name = name
        self.profiler = Profiler()
        # Captured at construction (rigs are built inside ``observe()``),
        # so the ledger-off hot path is one load and a None check.
        self._led = active_ledger()
        #: The profiler's accumulators (the lists live as long as it does).
        self._cycles = self.profiler._cycles
        self._touched = self.profiler._touched
        #: category -> (profiler index, lock factor), resolved on the first
        #: charge to the category (see :meth:`_charge_key`).
        self._charge_keys: Dict[str, Tuple[int, float]] = {}

        self.busy_until: float = 0.0
        self.busy_cycles: float = 0.0
        self._tasks: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        self._drain_scheduled = False
        self._running_task = False

    # ------------------------------------------------------------------
    # task execution
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any) -> None:
        """Queue a task; it runs when the CPU is free, FIFO."""
        self._tasks.append((fn, args))
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._drain_scheduled or self._running_task or not self._tasks:
            return
        start = max(self.sim.now, self.busy_until)
        self._drain_scheduled = True
        self.sim.call_at(start, self._drain)

    def _drain(self) -> None:
        self._drain_scheduled = False
        if not self._tasks:
            return
        fn, args = self._tasks.popleft()
        self._running_task = True
        if self.busy_until < self.sim.now:
            self.busy_until = self.sim.now
        try:
            fn(*args)
        finally:
            self._running_task = False
        self._schedule_drain()

    def _charge_key(self, category: str) -> Tuple[int, float]:
        """Resolve ``category`` to its profiler index and lock factor, at
        its first charge on this CPU.

        Both are fixed for a CPU's life: the category table only grows, and
        neither the lock model nor its factors change once the CPU is built.
        The first charge is also when the category joins the profiler's
        first-charge order.
        """
        idx = _intern_category(category)
        c = self._cycles
        if idx >= len(c):
            c.extend([0.0] * (idx + 1 - len(c)))
        touched = self._touched
        if idx not in touched:
            touched.append(idx)
        locks = self.locks
        factor = locks.factors.get(category, 1.0) if locks.enabled else 1.0
        key = self._charge_keys[category] = (idx, factor)
        return key

    def consume(self, cycles: float, category: str) -> None:
        """Charge ``cycles`` (nominal) to ``category`` and advance the clock.

        SMP lock inflation is applied here (a factor of 1.0 leaves the value
        unchanged).  The profiler charge is inlined (rather than calling
        :meth:`Profiler.add`) because this method runs several times per
        simulated packet, millions of times per run.
        """
        if cycles <= 0:
            return
        try:
            idx, factor = self._charge_keys[category]
        except KeyError:
            idx, factor = self._charge_key(category)
        cycles = cycles * factor
        self._cycles[idx] += cycles
        self.busy_cycles += cycles
        self.busy_until += cycles / self.freq_hz
        led = self._led
        if led is not None:
            led.charge(self, cycles, category)

    # ------------------------------------------------------------------
    # completion-time helpers
    # ------------------------------------------------------------------
    @property
    def now_done(self) -> float:
        """The simulation time at which work consumed so far completes."""
        return max(self.busy_until, self.sim.now)

    def defer(self, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule an effect at the completion time of work consumed so far.

        Used for "the packet hits the wire once the tx routine finishes".
        Deferred effects are fire-and-forget: no cancellation token is built.
        """
        sim = self.sim
        busy_until = self.busy_until
        now = sim.now
        # now_done, inlined.
        sim.call_at(busy_until if busy_until >= now else now, fn, *args)

    def idle(self) -> bool:
        """True when no task is running or queued and the clock has caught up."""
        return (
            not self._running_task
            and not self._tasks
            and self.busy_until <= self.sim.now
        )

    def utilization(self, window_cycles_start: float, window_seconds: float) -> float:
        """Busy fraction over a window that started at ``window_cycles_start``
        busy-cycles and lasted ``window_seconds``."""
        if window_seconds <= 0:
            return 0.0
        used = self.busy_cycles - window_cycles_start
        return min(1.0, used / (window_seconds * self.freq_hz))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cpu({self.name!r}, {self.freq_hz / 1e9:.1f} GHz, busy_until={self.busy_until:.6f})"
