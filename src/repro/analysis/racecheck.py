"""Cross-CPU ownership race detector ("simtsan") for multi-queue machines.

The multi-queue model's credibility rests on every cross-CPU touch being
*paid for*: when softirq processing on CPU *i* reaches into state owned by
CPU *j* — a socket pinned to another application CPU, another queue's ring
— the :class:`~repro.mq.costs.CrossCpuCostModel` must charge cache-line
bounce or IPI/wakeup cycles in that same event, or the Figure 12 RSS/aRFS
gap quietly shrinks.  :mod:`repro.analysis.simlint`'s ``cross-cpu-write``
rule enforces this statically over the call graph; this module is the
dynamic half, in the style of a thread sanitizer:

* **Ownership** is tagged at construction: each NIC queue's ring is owned
  by the CPU its MSI-X vector targets, each per-queue aggregation engine
  and softirq port by its queue's CPU, and each accepted socket by the
  ``app_cpu_index`` it is pinned to at accept time
  (:meth:`~repro.host.machine.ReceiverMachine.ownership_map` prints the
  static part of this table).  Only machines with more than one CPU are
  watched: a one-queue machine has no foreign owner to race with.
* **Accesses** are noted at the product seams — demux touching a socket,
  the application drain reading it, a driver ISR draining a ring, a
  softirq port entering its queue's path — through ``_rc`` attributes
  that are ``None`` unless a checker is installed, the same idiom the
  tracer uses (zero overhead disabled).
* **Reconciliation** happens per fired event, through the simulator's
  after-event hook: a foreign-owned access is legal iff the same event
  charged ``Category.XCPU`` cycles on the accessing or the owning CPU, or
  the object was explicitly handed off (:meth:`RaceChecker.handoff`).
  Anything else raises :class:`RaceReport` with both sim-time stacks: the
  access site and where the ownership was established.

The checker observes only — it consumes no cycles, schedules no events,
and draws no randomness — so enabled runs are bit-identical to unchecked
ones (the differential tests in ``tests/test_racecheck.py`` assert this
on the Figure 7 and multi-queue workloads).

Usage::

    from repro.analysis.racecheck import install, uninstall
    handle = install()          # every Simulator and multi-CPU
                                # ReceiverMachine from now on
    ...                         # run experiments
    uninstall(handle)

or ``python -m repro run ... --racecheck``, or ``REPRO_RACECHECK=1 pytest``
(see ``tests/conftest.py``).  Composes with the invariant sanitizer
(``--sanitize``): both observers chain on the same after-event hook.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cpu.categories import Category
from repro.sim.engine import Simulator, install_observer, uninstall_observer

#: Frames of context kept per captured stack (innermost last).
_STACK_LIMIT = 12


class RaceReport(AssertionError):
    """A cross-CPU access was neither charged nor explicitly handed off."""


@dataclass
class RacecheckStats:
    events_checked: int = 0
    accesses_noted: int = 0
    foreign_accesses: int = 0
    #: Foreign accesses already covered by an XCPU charge when noted.
    covered_at_note: int = 0
    #: Foreign accesses whose charge landed later in the same event.
    reconciled_in_event: int = 0
    handoffs: int = 0
    objects_tagged: int = 0
    violations: int = 0


def _capture_stack() -> List[str]:
    """The current Python stack, innermost last, checker frames dropped."""
    frames = traceback.extract_stack()[:-2][-_STACK_LIMIT:]
    return [
        f"{frame.filename}:{frame.lineno} in {frame.name}" for frame in frames
    ]


class _Tag:
    """Where and when an object's CPU ownership was established."""

    __slots__ = ("obj", "owner", "what", "time", "stack")

    def __init__(self, obj: object, owner: int, what: str, time: float, stack: List[str]):
        self.obj = obj  # strong ref: keeps id(obj) stable for the run
        self.owner = owner
        self.what = what
        self.time = time
        self.stack = stack


class _Pending:
    """One foreign access awaiting end-of-event reconciliation."""

    __slots__ = ("serial", "what", "desc", "owner", "accessor", "time", "stack", "tag", "key")

    def __init__(
        self,
        serial: int,
        what: str,
        desc: str,
        owner: int,
        accessor: int,
        time: float,
        stack: List[str],
        tag: Optional[_Tag],
        key: int,
    ):
        self.serial = serial
        self.what = what
        self.desc = desc
        self.owner = owner
        self.accessor = accessor
        self.time = time
        self.stack = stack
        self.tag = tag
        self.key = key


class RaceChecker:
    """Ownership checker bound to one :class:`Simulator` instance."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.stats = RacecheckStats()
        self.machines: List[object] = []
        #: id(Cpu) -> index within its machine.
        self._cpu_index: Dict[int, int] = {}
        #: CPU index -> event serial of its most recent XCPU charge.
        self._xcpu_last: Dict[int, int] = {}
        #: id(obj) -> event serial of its most recent explicit handoff.
        self._grace: Dict[int, int] = {}
        #: id(obj) -> ownership tag (strong refs keep ids stable).
        self._tags: Dict[int, _Tag] = {}
        self._pending: List[_Pending] = []
        sim.push_after_event_hook(self._after_event)

    # ------------------------------------------------------------------
    def detach(self) -> None:
        self.sim.remove_after_event_hook(self._after_event)

    def watch_machine(self, machine) -> None:
        """Track a multi-queue machine: map its CPUs, observe their XCPU
        charges, tag its per-queue state, and catch components built by
        later ``add_client`` calls.  One-CPU machines are skipped: there
        is no foreign owner to race with."""
        if len(machine.cpus) < 2 or machine in self.machines:
            return
        self.machines.append(machine)
        for index, cpu in enumerate(machine.cpus):
            self._cpu_index[id(cpu)] = index
            self._observe_cpu(cpu, index)
        kernel = getattr(machine, "kernel", None)
        if kernel is not None and hasattr(kernel, "_rc"):
            kernel._rc = self
        self._sync_components(machine)

        original = machine.add_client
        checker = self

        def watched_add_client(*args, _orig=original, **kwargs):
            nic = _orig(*args, **kwargs)
            checker._sync_components(machine)
            return nic

        machine.add_client = watched_add_client

    def _sync_components(self, machine) -> None:
        """Point every per-queue component at this checker and tag it."""
        for driver in machine.drivers:
            driver._rc = self
            owner = getattr(driver.queue, "owner_cpu", None)
            if owner is not None and id(driver.queue) not in self._tags:
                self.tag(driver.queue, owner, f"{driver.nic.name}.q{driver.queue.index} ring")
        for aggregator in machine.aggregators:
            owner = self._cpu_index.get(id(aggregator.cpu))
            if owner is not None and id(aggregator) not in self._tags:
                self.tag(aggregator, owner, aggregator.name)

    def _observe_cpu(self, cpu, index: int) -> None:
        """Record the event serial of every XCPU charge on this CPU.

        The wrapper is observation-only: the original ``consume`` runs
        unconditionally with unchanged arguments, so charged cycles — and
        therefore simulation behaviour — are bit-identical.
        """
        if getattr(cpu, "_rc_observed", False):
            return
        cpu._rc_observed = True
        original = cpu.consume
        checker = self

        def observed_consume(cycles: float, category: str, _orig=original) -> None:
            if category == Category.XCPU and cycles > 0:
                checker._xcpu_last[index] = checker.sim._events_fired
            _orig(cycles, category)

        cpu.consume = observed_consume

    # ------------------------------------------------------------------
    # ownership tagging and transfer
    # ------------------------------------------------------------------
    def tag(self, obj: object, owner: int, what: str) -> None:
        """Record ``obj`` as owned by CPU ``owner`` from this point on."""
        self.stats.objects_tagged += 1
        self._tags[id(obj)] = _Tag(
            obj, owner, what, self.sim.now, _capture_stack()
        )

    def tag_socket(self, sock, owner: int) -> None:
        """Socket pinned at accept time (called by ``Kernel._demux``)."""
        self.tag(sock, owner, f"socket {getattr(sock.conn, 'name', sock)}")

    def handoff(self, obj: object, new_owner: int) -> None:
        """Explicit ownership transfer: accesses to ``obj`` from either side
        are legal for the rest of this event, and ``new_owner`` owns it
        afterwards."""
        self.stats.handoffs += 1
        self._grace[id(obj)] = self.sim._events_fired
        tag = self._tags.get(id(obj))
        if tag is not None:
            tag.owner = new_owner
            tag.time = self.sim.now
            tag.stack = _capture_stack()

    def cpu_index_of(self, cpu) -> Optional[int]:
        """Machine index of a watched CPU object (None if unknown)."""
        return self._cpu_index.get(id(cpu))

    def _owner_of(self, obj: object) -> Optional[int]:
        tag = self._tags.get(id(obj))
        if tag is not None:
            return tag.owner
        return None

    # ------------------------------------------------------------------
    # access noting (called from the product seams, _rc-guarded)
    # ------------------------------------------------------------------
    def note_socket_access(self, sock, accessor: int, what: str) -> None:
        owner = self._owner_of(sock)
        if owner is None:
            owner = getattr(sock, "app_cpu_index", None)
        self._note(sock, what, owner, accessor, f"socket {getattr(sock.conn, 'name', sock)}")

    def note_ring_access(self, queue, cpu) -> None:
        self._note(
            queue,
            "ring drain",
            getattr(queue, "owner_cpu", None),
            self._cpu_index.get(id(cpu)),
            f"{queue.nic.name}.q{queue.index} ring",
        )

    def note_port_access(self, port, accessor: int) -> None:
        self._note(
            port,
            "softirq entry",
            port.cpu_index,
            accessor,
            f"softirq port cpu{port.cpu_index}",
        )

    def _note(
        self,
        obj: object,
        what: str,
        owner: Optional[int],
        accessor: Optional[int],
        desc: str,
    ) -> None:
        self.stats.accesses_noted += 1
        if owner is None or accessor is None or owner == accessor:
            return
        self.stats.foreign_accesses += 1
        serial = self.sim._events_fired
        if (
            self._xcpu_last.get(accessor) == serial
            or self._xcpu_last.get(owner) == serial
            or self._grace.get(id(obj)) == serial
        ):
            self.stats.covered_at_note += 1
            return
        # Not covered yet — the charge may still land later in this event;
        # park the access (with its stack) for end-of-event reconciliation.
        self._pending.append(
            _Pending(
                serial=serial,
                what=what,
                desc=desc,
                owner=owner,
                accessor=accessor,
                time=self.sim.now,
                stack=_capture_stack(),
                tag=self._tags.get(id(obj)),
                key=id(obj),
            )
        )

    # ------------------------------------------------------------------
    # per-event reconciliation
    # ------------------------------------------------------------------
    def _after_event(self) -> None:
        self.stats.events_checked += 1
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for rec in pending:
            if (
                self._xcpu_last.get(rec.accessor) == rec.serial
                or self._xcpu_last.get(rec.owner) == rec.serial
                or self._grace.get(rec.key) == rec.serial
            ):
                self.stats.reconciled_in_event += 1
                continue
            self.stats.violations += 1
            raise RaceReport(self._format(rec))

    def _format(self, rec: _Pending) -> str:
        lines = [
            f"cross-CPU race: {rec.what} touched {rec.desc} owned by "
            f"cpu{rec.owner} from cpu{rec.accessor} at t={rec.time:.9f}s "
            f"(event #{rec.serial}) with no CrossCpuCostModel charge on "
            "either CPU in that event and no handoff",
            f"  access stack (t={rec.time:.9f}s):",
        ]
        lines.extend(f"    {frame}" for frame in rec.stack)
        if rec.tag is not None:
            lines.append(
                f"  ownership established for cpu{rec.tag.owner} "
                f"(t={rec.tag.time:.9f}s):"
            )
            lines.extend(f"    {frame}" for frame in rec.tag.stack)
        else:
            lines.append("  ownership established at construction (untagged)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# process-wide installation (mirrors repro.analysis.sanitizer)
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _InstallHandle:
    """The installed race checker: an observer factory giving every new
    Simulator a :class:`RaceChecker`, collected in ``checkers``."""

    checkers: List[RaceChecker] = field(default_factory=list)

    def __call__(self, sim: Simulator) -> RaceChecker:
        checker = RaceChecker(sim)
        self.checkers.append(checker)
        return checker


_active_handle: Optional[_InstallHandle] = None


def install() -> _InstallHandle:
    """Race-check every Simulator and multi-queue machine created from now
    on.  Idempotent: a second call returns the active handle."""
    global _active_handle
    if _active_handle is None:
        _active_handle = _InstallHandle()
        install_observer(_active_handle)
    return _active_handle


def uninstall(handle: Optional[_InstallHandle] = None) -> None:
    """Undo :func:`install`.  Already-created simulators stay checked."""
    global _active_handle
    if handle is None:
        handle = _active_handle
    if handle is None:
        return
    uninstall_observer(handle)
    if handle is _active_handle:
        _active_handle = None


def is_installed() -> bool:
    return _active_handle is not None
