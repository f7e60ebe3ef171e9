"""Event-heap simulator core.

The simulator keeps a priority queue of plain tuples ordered by
(time, sequence-number).  The sequence number makes ordering deterministic for
events scheduled at the same instant: they fire in scheduling order.

Heap entries are ``(time, seq, fn, args, handle)`` tuples, so ordering is
resolved by the C tuple comparison in ``heapq`` without ever calling back
into Python.  ``handle`` is ``None`` on the fast path
(:meth:`Simulator.call_at` / :meth:`Simulator.post`); a per-event
:class:`Event` cancellation token is only allocated when the caller needs
one (:meth:`Simulator.schedule` / :meth:`Simulator.at`).

Cancellation is lazy: the heap entry stays in place and is skipped when it
surfaces.  TCP arms a delayed-ACK timer every second segment and cancels
most of them, so the heap is compacted in place whenever cancelled entries
exceed a small floor and outnumber the live ones.  Right after any cancel
the heap therefore holds at most ``2 * pending + 64`` entries, however long
the arm/cancel churn runs.

Postponement is lazy too (:meth:`Event.postpone`, Linux ``mod_timer``):
TCP restarts its RTO on every advancing ACK, and moving a pending event
later keeps its heap entry.  The event draws the sequence number a fresh
:meth:`Simulator.schedule` would have drawn and records its new
``(time, seq)``; when the old entry surfaces, :meth:`Simulator.run` and
:meth:`Simulator.step` push it back under that key without counting a
firing.  Every event therefore fires at the position cancel-plus-schedule
would have given it, same-time ties included.

Time is a float in *seconds*.  All subsystems (links, NICs, CPUs, TCP timers)
schedule callbacks through one shared simulator instance.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Compact the heap when it holds more than this many cancelled entries and
#: they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64

_INF = float("inf")


class CheckerInstall:
    """One installed run-time checker class (the invariant sanitizer, the
    race checker): every :class:`Simulator` built while it is installed
    gets one ``cls(sim, **kwargs)``, kept in ``observers``."""

    __slots__ = ("cls", "kwargs", "observers")

    def __init__(self, cls: type, kwargs: Dict[str, Any]):
        self.cls = cls
        self.kwargs = kwargs
        self.observers: List[Any] = []

    def attach(self, sim: "Simulator") -> Any:
        observer = self.cls(sim, **self.kwargs)
        self.observers.append(observer)
        return observer


#: The installed checkers, in install order.
_installed: List[CheckerInstall] = []


def install_checker(cls: type, **kwargs: Any) -> CheckerInstall:
    """Give every :class:`Simulator` built from now on a ``cls(sim,
    **kwargs)`` observer; receiver machines hand themselves to it (its
    ``watch_machine``) once constructed.

    Idempotent per class: while ``cls`` is installed this returns its
    install as it is, whatever ``kwargs`` say.
    """
    for install in _installed:
        if install.cls is cls:
            return install
    install = CheckerInstall(cls, kwargs)
    _installed.append(install)
    return install


def uninstall_checker(cls: type) -> None:
    """Stop ``cls`` observing new simulators (existing ones keep their
    observers); other installed checkers are unaffected."""
    _installed[:] = [install for install in _installed if install.cls is not cls]


def installed_checkers() -> Dict[type, Dict[str, Any]]:
    """Each installed checker class with its keyword arguments, in install
    order: what :func:`repro.parallel.run_points` hands its workers."""
    return {install.cls: dict(install.kwargs) for install in _installed}


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A cancellation token for a scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or
    :meth:`Simulator.at`) and may be cancelled with :meth:`cancel` or moved
    later with :meth:`postpone`.  ``time`` and ``seq`` are the event's
    current key; its heap entry may still carry an older, earlier one.
    """

    __slots__ = ("time", "seq", "cancelled", "_fired", "_sim")

    def __init__(self, time: float, seq: int, sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent.

        The bookkeeping is inlined: TCP arms and cancels a timer per
        segment, so this runs millions of times per long simulation.
        """
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        sim = self._sim
        sim._pending -= 1
        cancelled = sim._cancelled + 1
        sim._cancelled = cancelled
        if cancelled > _COMPACT_MIN_CANCELLED and cancelled * 2 > len(sim._heap):
            sim._compact()

    def postpone(self, delay: float) -> bool:
        """Move this pending event to ``delay`` seconds from now, in place.

        Linux ``mod_timer`` for a deadline that does not move earlier: the
        event takes the next sequence number exactly as
        :meth:`Simulator.schedule` would, so it fires where cancelling it and
        scheduling anew would have put it.  Nothing is allocated and the
        heap does not grow.  Returns False, changing nothing, when the event
        has fired or been cancelled, or when the new deadline is earlier
        than the current one; the caller then cancels and schedules.
        """
        sim = self._sim
        time = sim.now + delay
        if time < self.time or self.cancelled or self._fired:
            return False
        serial = sim._seq
        sim._seq = serial + 1
        self.time = time
        self.seq = serial
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else ("cancelled" if self.cancelled else "pending")
        return f"Event(t={self.time:.9f}, seq={self.seq}, {state})"


class Simulator:
    """A deterministic discrete-event scheduler.

    Example::

        sim = Simulator()
        sim.schedule(1e-3, print, "one millisecond elapsed")
        sim.run()
        assert sim.now == 1e-3
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[..., Any], tuple, Optional[Event]]] = []
        self._seq: int = 0
        self._events_fired: int = 0
        self._pending: int = 0
        #: Cancelled entries still occupying heap slots.
        self._cancelled: int = 0
        self._running: bool = False
        #: Registered after-event observers, in installation order (see
        #: :meth:`push_after_event_hook`).
        self._after_event_hooks: List[Callable[[], None]] = []
        #: Compiled dispatch for the hot loop: ``None`` when no observers
        #: are registered (the normal fast path), the hook itself for one,
        #: a closure looping over a tuple for several.
        self._after_event: Optional[Callable[[], None]] = None
        #: One observer per installed checker (see :func:`install_checker`).
        self.observers: List[Any] = [install.attach(self) for install in _installed]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a cancellation token; use :meth:`post` when you will never
        cancel, to skip allocating one.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.at(self.now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        serial = self._seq
        self._seq = serial + 1
        ev = Event(time, serial, self)
        self._pending += 1
        heapq.heappush(self._heap, (time, serial, fn, args, ev))
        return ev

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no cancellation token is built."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.call_at(self.now + delay, fn, *args)

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at`: no cancellation token is built.

        This is the hot path for wire deliveries and CPU task drains, which
        are never cancelled.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        serial = self._seq
        self._seq = serial + 1
        self._pending += 1
        heapq.heappush(self._heap, (time, serial, fn, args, None))

    # ------------------------------------------------------------------
    # cancellation bookkeeping (the per-cancel part is inlined in
    # Event.cancel)
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (ordering is unaffected).

        Compaction is in place: ``run()`` holds a reference to the heap list
        while firing events, so the list object must never be replaced.
        """
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when nothing is pending."""
        heap = self._heap
        while heap:
            time, seq, fn, args, handle = heapq.heappop(heap)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                if handle.seq != seq:
                    # Postponed: requeue under the key it now holds.
                    heapq.heappush(heap, (handle.time, handle.seq, fn, args, handle))
                    continue
                handle._fired = True
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event heap time went backwards")
            self.now = time
            self._pending -= 1
            self._events_fired += 1
            fn(*args)
            if self._after_event is not None:
                self._after_event()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until everything pending drains, ``until`` is reached,
        or ``max_events`` have fired.

        ``max_events`` and :attr:`events_fired` count only real firings —
        cancelled entries skipped and postponed entries requeued on the way
        count in neither, exactly as in :meth:`step`.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so rate computations over the
        window are well defined.
        """
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        fired = 0
        # Hoist the None checks out of the loop: comparisons against +inf
        # behave identically to "no bound".
        time_bound = _INF if until is None else until
        event_bound = _INF if max_events is None else max_events
        try:
            while heap:
                entry = heap[0]
                handle = entry[4]
                if handle is not None:
                    if handle.cancelled:
                        heappop(heap)
                        self._cancelled -= 1
                        continue
                    if handle.seq != entry[1]:
                        heapreplace(heap, (handle.time, handle.seq, entry[2], entry[3], handle))
                        continue
                time = entry[0]
                if time > time_bound:
                    break
                if fired >= event_bound:
                    return
                heappop(heap)
                if handle is not None:
                    handle._fired = True
                self.now = time
                self._pending -= 1
                self._events_fired += 1
                fired += 1
                entry[2](*entry[3])
                if self._after_event is not None:
                    self._after_event()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def push_after_event_hook(self, hook: Callable[[], None]) -> None:
        """Register an observer called after every fired event.

        Used by the runtime sanitizer (:mod:`repro.analysis.sanitizer`) and
        the race checker (:mod:`repro.analysis.racecheck`); they chain in
        installation order.  The hot loop stays a single None-check: with
        no observers the compiled ``_after_event`` slot is ``None``, with
        one it is the hook itself, and only with several does dispatch go
        through a loop.  Re-pushing an already-registered hook is a no-op.
        """
        if hook in self._after_event_hooks:
            return
        self._after_event_hooks.append(hook)
        self._rebuild_after_event()

    def remove_after_event_hook(self, hook: Callable[[], None]) -> None:
        """Unregister one observer; unknown hooks are ignored."""
        if hook in self._after_event_hooks:
            self._after_event_hooks.remove(hook)
            self._rebuild_after_event()

    def _rebuild_after_event(self) -> None:
        hooks = tuple(self._after_event_hooks)
        if not hooks:
            self._after_event = None
        elif len(hooks) == 1:
            self._after_event = hooks[0]
        else:

            def dispatch() -> None:
                for hook in hooks:
                    hook()

            self._after_event = dispatch

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._pending

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.9f}, pending={self.pending})"
