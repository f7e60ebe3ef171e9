"""Unit tests for the discrete-event simulation kernel."""

import itertools
import random
from collections import Counter

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_initial_state(sim):
    assert sim.now == 0.0
    assert sim.pending == 0
    assert sim.events_fired == 0


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(1e-3, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == pytest.approx(1e-3)


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3e-3, order.append, 3)
    sim.schedule(1e-3, order.append, 1)
    sim.schedule(2e-3, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order(sim):
    order = []
    for i in range(10):
        sim.schedule(1e-3, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.schedule(1e-3, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    ev = sim.schedule(1e-3, lambda: None)
    ev.cancel()
    ev.cancel()
    assert sim.pending == 0
    assert sim._cancelled == len(sim._heap) == 1
    sim.run()


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1e-3, fired.append, "early")
    sim.schedule(5e-3, fired.append, "late")
    sim.run(until=2e-3)
    assert fired == ["early"]
    assert sim.now == pytest.approx(2e-3)
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events(sim):
    sim.run(until=0.5)
    assert sim.now == pytest.approx(0.5)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_at_in_the_past_rejected(sim):
    sim.schedule(1e-3, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.0, lambda: None)


def test_events_scheduled_during_run_fire(sim):
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1e-4, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_bound(sim):
    fired = []

    def rearm():
        fired.append(sim.now)
        sim.schedule(1e-6, rearm)

    sim.schedule(0.0, rearm)
    sim.run(max_events=10)
    assert len(fired) == 10


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_pending_counts_only_live_events(sim):
    ev1 = sim.schedule(1e-3, lambda: None)
    sim.schedule(2e-3, lambda: None)
    assert sim.pending == 2
    ev1.cancel()
    assert sim.pending == 1


def test_post_and_call_at_interleave_with_schedule_in_order(sim):
    """Token-less (post/call_at) and token-carrying (schedule/at) entries
    share one heap and fire strictly in (time, scheduling) order."""
    order = []
    sim.schedule(2e-3, order.append, "s2")
    sim.post(1e-3, order.append, "p1")
    sim.at(1e-3, order.append, "a1")
    sim.call_at(2e-3, order.append, "c2")
    sim.run()
    assert order == ["p1", "a1", "s2", "c2"]


def test_post_rejects_negative_delay(sim):
    with pytest.raises(SimulationError):
        sim.post(-1e-9, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(-1.0, lambda: None)


def test_events_fired_counts_same_via_run_and_step(sim):
    """run() and step() share one accounting: cancelled entries never count,
    and a postponed event counts once, at its new deadline."""
    for i in range(5):
        sim.schedule(1e-3 * (i + 1), lambda: None)
    sim.schedule(6e-3, lambda: None).cancel()
    assert sim.schedule(2e-3, lambda: None).postpone(7e-3)
    while sim.step():
        pass
    fired_via_step = sim.events_fired

    sim2 = Simulator()
    for i in range(5):
        sim2.schedule(1e-3 * (i + 1), lambda: None)
    sim2.schedule(6e-3, lambda: None).cancel()
    assert sim2.schedule(2e-3, lambda: None).postpone(7e-3)
    sim2.run()
    assert fired_via_step == sim2.events_fired == 6
    assert sim.now == sim2.now == 7e-3


def test_max_events_ignores_cancelled_entries(sim):
    fired = []
    cancelled = [sim.schedule(1e-4 * i, lambda: None) for i in range(1, 4)]
    for ev in cancelled:
        ev.cancel()
    sim.schedule(1e-3, fired.append, "a")
    sim.schedule(2e-3, fired.append, "b")
    sim.run(max_events=2)
    assert fired == ["a", "b"]
    assert sim.events_fired == 2


def test_heap_compaction_drops_cancelled_entries(sim):
    """Mass-cancelling timers must shrink the heap, not just mark entries."""
    events = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(500)]
    keep = sim.schedule(2.0, lambda: None)
    assert sim.pending == 501
    for ev in events:
        ev.cancel()
    # Compaction triggers once cancelled entries outnumber live ones (and
    # exceed the minimum batch), so the physical heap must have been rebuilt
    # down to the one live entry plus at most one sub-threshold batch of
    # still-marked entries.
    assert sim.pending == 1
    assert len(sim._heap) < 140
    sim.run()
    assert sim.events_fired == 1
    assert keep._fired


def test_cancel_inside_run_of_later_event(sim):
    """An event firing may cancel a later pending event mid-run."""
    fired = []
    later = sim.schedule(2e-3, fired.append, "later")
    sim.schedule(1e-3, later.cancel)
    sim.run()
    assert fired == []
    assert sim.pending == 0


def test_compaction_during_run_preserves_order(sim):
    """Compaction happens while run() iterates; firing order must survive."""
    order = []
    doomed = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(200)]

    def cancel_all():
        order.append("cancel")
        for ev in doomed:
            ev.cancel()

    sim.schedule(1e-3, cancel_all)
    sim.schedule(2e-3, order.append, "after")
    sim.run()
    assert order == ["cancel", "after"]
    assert sim.pending == 0


def test_postponed_kernel_timer_submits_no_task_at_old_deadline(sim):
    """A kernel timer postpones its inner event: no CPU task is queued at
    the stale deadline, only one at the new one, and the callback runs
    once there."""
    from repro.cpu.cpu import Cpu
    from repro.host.kernel import KernelTimers

    cpu = Cpu(sim, freq_hz=1e9)
    submitted = []
    submit = cpu.submit

    def spy(fn, *args):
        submitted.append(sim.now)
        submit(fn, *args)

    cpu.submit = spy
    fired = []
    handle = KernelTimers(sim, cpu).schedule(1e-3, lambda: fired.append(sim.now))
    sim.schedule(0.5e-3, lambda: handle.postpone(1e-3))
    sim.run(until=0.01)
    assert submitted == [pytest.approx(1.5e-3)]
    assert fired == [pytest.approx(1.5e-3)]


@pytest.mark.parametrize("rearm", ["cancel_schedule", "postpone"])
def test_rto_rearm_churn_keeps_heap_bounded(sim, rearm):
    """TCP's RTO pattern: every segment arrival re-arms the pending timer,
    by cancelling it and scheduling a new one or by postponing it in
    place.  Lazy cancellation plus compaction must keep the heap within
    ``2 * pending + 64`` entries after every re-arm, however long the
    churn runs; postponing never grows the heap at all."""
    n_timers, rounds = 500, 200
    timers = [None] * n_timers
    remaining = [rounds] * n_timers

    def arrival(i):
        timer = timers[i]
        if rearm == "postpone" and timer is not None and timer.postpone(0.200):
            assert len(sim._heap) == sim.pending
        else:
            if timer is not None:
                timer.cancel()
            timers[i] = sim.schedule(0.200, fire, i)
        assert len(sim._heap) <= 2 * sim.pending + 64
        remaining[i] -= 1
        if remaining[i] > 0:
            sim.post(61e-6, arrival, i)

    def fire(i):
        timers[i] = None

    for i in range(n_timers):
        sim.post(i * 1e-7, arrival, i)
    sim.run()
    assert sim.events_fired == 100_500  # every arrival + one RTO per timer
    assert sim.pending == 0


def _random_script(sim, seed, postpone):
    """Run the seeded schedule/cancel/re-arm script behind
    :func:`test_random_schedule_cancel_fires_in_time_then_schedule_order`.

    A re-arm moves a pending event to a new deadline: with ``postpone``
    through :meth:`Event.postpone`, which refuses an earlier deadline, so
    the script then cancels and schedules; otherwise always by cancel plus
    schedule.  Returns what fired, each event's (deadline, order of its
    latest scheduling) key, the cancelled events, and counts of
    compactions, of re-arms to a later, earlier and unchanged deadline,
    and of re-arms onto another event's deadline.
    """
    rng = random.Random(seed)
    order = itertools.count()
    fired = []
    keys = []
    cancelled = set()
    live = []
    stats = Counter()

    compact = sim._compact

    def counting_compact():
        stats["compactions"] += 1
        compact()

    sim._compact = counting_compact

    def cb(i):
        fired.append(i)

    def pick_delay():
        return rng.choice([
            rng.randrange(4) * 1e-4,  # same-time ties within a round
            rng.uniform(0.0, 2.5e-4),
            rng.uniform(0.0, 0.5),
        ])

    def driver(round_no):
        for _ in range(8):
            op = rng.random()
            if op < 0.45 or not live:
                delay = pick_delay()
                keys.append((sim.now + delay, next(order)))
                live.append((len(keys) - 1, sim.schedule(delay, cb, len(keys) - 1)))
            elif op < 0.7:
                i, ev = live.pop(rng.randrange(len(live)))
                if not ev._fired:
                    cancelled.add(i)
                ev.cancel()
            else:
                slot = rng.randrange(len(live))
                i, ev = live[slot]
                old = keys[i][0]
                delay = rng.choice([pick_delay(), old - sim.now])  # or keep its deadline
                if ev._fired:
                    continue
                new = sim.now + delay
                stats["later" if new > old else "earlier" if new < old else "equal"] += 1
                stats["tied"] += any(k[0] == new for j, k in enumerate(keys) if j != i)
                keys[i] = (new, next(order))
                if not (postpone and ev.postpone(delay)):
                    ev.cancel()
                    live[slot] = (i, sim.schedule(delay, cb, i))
        if round_no > 0:
            sim.schedule(rng.uniform(0.0, 2e-3), driver, round_no - 1)

    driver(120)
    sim.run()
    return fired, keys, cancelled, stats


@pytest.mark.parametrize("seed", [1, 20260808, 424242])
def test_random_schedule_cancel_fires_in_time_then_schedule_order(sim, seed):
    """A seeded script schedules at equal, near and far delays, cancels
    random handles (some already fired), re-arms pending ones to later,
    earlier and tied deadlines, and schedules from inside callbacks.
    Every live event must fire exactly once, every cancelled one never,
    in (time, scheduling order) — through any number of compactions.
    Postponing in place must fire exactly what cancel-plus-schedule fires,
    in the same order, with the same ``events_fired``."""
    fired, keys, cancelled, stats = _random_script(sim, seed, postpone=True)
    reference = Simulator()
    ref_fired, ref_keys, ref_cancelled, ref_stats = _random_script(reference, seed, postpone=False)
    assert (fired, keys, cancelled) == (ref_fired, ref_keys, ref_cancelled)
    assert sim.events_fired == reference.events_fired
    assert sorted(fired) == [i for i in range(len(keys)) if i not in cancelled]
    assert fired == sorted(fired, key=lambda i: keys[i])
    assert len(fired) > 250
    assert stats["compactions"] and ref_stats["compactions"]
    assert stats["later"] and stats["earlier"] and stats["equal"] and stats["tied"]
