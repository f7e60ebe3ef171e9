"""Tests for the many-connection workload generator (scale regime)."""

import gc
import tracemalloc
import types
from collections import deque

import pytest

from repro.core.config import OptimizationConfig
from repro.host.configs import linux_up_config
from repro.sim.engine import install_checker, installed_checkers, uninstall_checker
from repro.sim.rng import SeededRng
from repro.workloads.many import (
    ManyConnWorkload,
    _MiceApp,
    build_many_connection_rig,
    run_many_connection_experiment,
    run_many_connection_rig,
)

#: Small population, short window: the semantics under test don't need 1k.
SMALL = dict(n_connections=60, seed=7)


def _run(duration=0.04, warmup=0.02, **kw):
    wl = ManyConnWorkload(**{**SMALL, **kw})
    return run_many_connection_experiment(
        linux_up_config(), OptimizationConfig.optimized(), wl,
        duration=duration, warmup=warmup,
    )


def test_same_seed_is_event_identical():
    a = _run()
    b = _run()
    assert a == b  # every field, including events_fired, bit-identical


def test_different_seed_changes_schedule():
    a = _run()
    b = _run(seed=8)
    assert a.events_fired != b.events_fired


def test_mix_makes_progress():
    r = _run()
    assert r.transactions > 0          # mice complete RPC round-trips
    assert r.bytes_received > 0        # elephants stream bulk data
    assert r.throughput_mbps > 0
    assert r.connections_opened == 60  # full population came up
    assert r.allocations_saved > 0     # the slab is recycling at scale


def test_poisson_churn_opens_and_closes_connections():
    r = _run(arrival_rate_hz=2000.0, duration=0.05)
    assert r.connections_opened > 60
    assert r.connections_closed > 0
    # Churned connections close after their transaction quota; residents
    # never close.
    assert r.connections_closed <= r.connections_opened - 60


def test_no_churn_when_rate_zero():
    r = _run(arrival_rate_hz=0.0)
    assert r.connections_opened == 60
    assert r.connections_closed == 0


def test_elephant_fraction_splits_population():
    wl = ManyConnWorkload(**SMALL, elephant_fraction=0.25)
    sim, machine, clients, driver = build_many_connection_rig(
        linux_up_config(), OptimizationConfig.optimized(), wl
    )
    driver.start()
    sim.run(until=wl.stagger_s * 2)
    assert len(driver.elephants) == 15
    assert len(driver.mice) == 45


def test_batching_halves_events_with_bounded_timing_skew():
    """Link batching collapses per-frame delivery events into one per
    window.  It is NOT bit-neutral — each frame is held up to one window
    (25 us) past its wire arrival, like NIC interrupt moderation — but the
    skew is bounded: the workload must land within a fraction of a percent
    of the unbatched rig while firing far fewer scheduler events."""
    batched = _run()
    unbatched = _run(batch_window_s=0.0)
    assert batched.connections_opened == unbatched.connections_opened
    assert batched.transactions == pytest.approx(unbatched.transactions, rel=0.02)
    assert batched.bytes_received == pytest.approx(unbatched.bytes_received, rel=0.01)
    # The event saving is the whole point: roughly one event per window
    # instead of one per frame.
    assert batched.events_fired < 0.7 * unbatched.events_fired


def test_sanitized_many_conn_run():
    """The full scale rig — slab, batching, timer churn — under the runtime
    sanitizer's conservation and reuse-after-free audits."""
    from repro.analysis.sanitizer import SimSanitizer

    fresh = SimSanitizer not in installed_checkers()
    install_checker(SimSanitizer, deep_every=64)
    try:
        r = _run(n_connections=30, duration=0.03, warmup=0.015,
                 arrival_rate_hz=1000.0)
    finally:
        if fresh:
            uninstall_checker(SimSanitizer)
    assert r.transactions > 0
    assert r.allocations_saved > 0


def _connections(rig) -> list:
    """Every connection endpoint of a many-connection ``rig``, both ends."""
    _sim, machine, clients, _driver = rig
    return list(machine.kernel.connections.values()) + [
        conn for client in clients for conn in client.connections.values()
    ]


def objects_per_endpoint(rig, objects_before: int) -> float:
    """GC-tracked objects a many-connection ``rig`` holds per connection
    endpoint.

    ``objects_before`` is ``len(gc.get_objects())`` after a full collection,
    taken before the rig was built; the count after another full collection
    minus it is divided by the connection endpoints (both ends) alive now.
    It is what the cyclic collector's full passes scan per endpoint.
    """
    gc.collect()
    return (len(gc.get_objects()) - objects_before) / len(_connections(rig))


#: GC-tracked objects per connection endpoint on the 1k rig at 30 ms,
#: measured: 22.0 on CPython 3.9 and 3.10, 21.9 on 3.11, 3.12 and 3.13
#: (before 3.11 every instance that is not slotted has a dict of its own).
#: The bound is the highest plus about 15% headroom.  Before each mouse
#: became its own socket, RPC responders one slotted object, idle kernel
#: sockets list-free and send buffers a list of the writer's objects: 24.9
#: on 3.9 and 3.10, 24.8 on 3.11, 3.12 and 3.13.  Before each mouse
#: derived its generator on first use and endpoints dropped their deque
#: and empty lists: 30.5 on 3.9 and 3.10, 29.3 on 3.11, 3.12 and 3.13.
#: Before connection state was slotted and shared: 43.4 on 3.10, 40.2 on
#: 3.11 and 3.12.
OBJECTS_PER_ENDPOINT_BOUND = 25.3


def test_connection_state_footprint():
    """Per-connection state stays small at scale: the cyclic collector's
    full passes scan every tracked object, so each one an endpoint holds
    costs wall time on the 10k point.

    The seeded 1k run is also the scale regime's event-count pin: its
    events, completed transactions and slab savings are exact on CPython
    3.10-3.12, with or without the sanitizer (which schedules nothing).
    Slab savings count every packet re-stamped from the freelist: 16,454
    before the driver drew its template-ACK clones from the slab, 17,561
    since (the events and transactions did not move).
    """
    gc.collect()
    objects_before = len(gc.get_objects())
    result, rig = run_many_connection_rig(
        linux_up_config(), OptimizationConfig.optimized(),
        ManyConnWorkload(n_connections=1000, arrival_rate_hz=2000.0),
        duration=0.01, warmup=0.02,
    )
    per_endpoint = objects_per_endpoint(rig, objects_before)
    counts = (result.events_fired, result.transactions, result.allocations_saved)
    assert counts == (14484, 492, 17561), (
        f"the seeded 1k run moved to (events, transactions, slab saves) = {counts} "
        "(re-pin only if that was the point)"
    )
    _sim, machine, clients, driver = rig
    server = list(machine.kernel.connections.values())
    client = list(clients[0].connections.values())
    for conn in (server[0], client[0]):
        for obj in (conn, conn.stats, conn.reno, conn.rtt):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert not hasattr(driver.mice[0], "__dict__")  # the mouse is its TcpSocket
    assert not hasattr(next(iter(machine.kernel.sockets.values())), "__dict__")
    for a, b in (server[:2], client[:2]):
        assert a.config is b.config
        assert a.clock is b.clock
    for conn in server + client:
        assert conn._template._flow_key is conn.key
    assert per_endpoint < OBJECTS_PER_ENDPOINT_BOUND


#: The lean-endpoint rig: 1,000 connections opened within 2 ms swamp the
#: UP receiver, so at 3 ms most mice still wait for their first response,
#: as on the 10k point.  About 0.6 s under tracemalloc.
LEAN = dict(n_connections=1000, stagger_s=0.002)
LEAN_END_S = 0.003

#: tracemalloc bytes per connection endpoint on the lean rig, from before
#: it is built to the end of its run, measured: 3,517 on CPython 3.9,
#: 3,763 on 3.10, 3,455 on 3.11, 3,434 on 3.12, 3,134 on 3.13; the bound
#: is the highest plus about 15%.  While send buffers copied each write
#: and connections stored their names: 4,259, 4,417, 4,071, 4,042 and
#: 3,745.  When every mouse seeded its generator at open and every
#: endpoint held a deque: 6,304, 6,466, 6,408, 6,371 and 6,079.
BYTES_PER_ENDPOINT_BOUND = 4300


@pytest.fixture(scope="module")
def lean_rig():
    """The lean rig, run under tracemalloc: ``(rig, bytes per endpoint)``."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rig = build_many_connection_rig(
            linux_up_config(), OptimizationConfig.optimized(), ManyConnWorkload(**LEAN)
        )
        sim, _machine, _clients, driver = rig
        driver.start()
        sim.run(until=LEAN_END_S)
        gc.collect()
        grew = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return rig, grew / len(_connections(rig))


def test_mice_derive_their_generator_on_first_draw(lean_rig):
    rig, _ = lean_rig
    mice = rig[3].mice
    idle = [app for app in mice if app.transactions == 0]
    assert len(idle) > len(mice) // 2
    assert all(app.rng is None for app in idle)
    assert all(app.rng is not None for app in mice if app.transactions)


def test_no_endpoint_holds_a_deque(lean_rig):
    rig, _ = lean_rig
    conns = _connections(rig)
    for obj in conns + [conn.app for conn in conns] + rig[3].mice:
        slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
        assert slots, type(obj).__name__
        for name in slots:
            assert not isinstance(getattr(obj, name, None), deque), f"{type(obj).__name__}.{name}"


def test_endpoint_bytes_stay_lean(lean_rig):
    _, per_endpoint = lean_rig
    assert per_endpoint < BYTES_PER_ENDPOINT_BOUND


def test_mice_and_responders_are_one_object_each(lean_rig):
    """A mouse is its connection's socket and a server connection's
    responder is one slotted object: no bound method anywhere, the event
    heap included, has either as its ``__self__``."""
    _sim, machine, _clients, driver = lean_rig[0]
    mice = driver.mice
    assert all(mouse.conn.app is mouse for mouse in mice)
    responders = [sock.on_data_cb for sock in machine.kernel.sockets.values()]
    assert responders and not any(hasattr(r, "__dict__") for r in responders)
    owners = {id(obj) for obj in mice + responders}
    gc.collect()
    bound = [
        o for o in gc.get_objects()
        if isinstance(o, types.MethodType) and id(o.__self__) in owners
    ]
    assert not bound, bound[:3]


def test_idle_kernel_sockets_hold_no_list(lean_rig):
    """The receive queue lists exist only while data waits for the drain."""
    sockets = list(lean_rig[0][1].kernel.sockets.values())
    idle = [sock for sock in sockets if sock.pending_bytes == 0]
    assert any(sock.bytes_received for sock in idle)  # drained ones, too
    assert len(idle) > len(sockets) // 2
    for sock in idle:
        assert sock.pending is None and sock.pending_items is None


def test_send_buffers_hold_the_one_request_and_response(lean_rig):
    """Every buffered request is the driver's one request object and every
    buffered response the server's one response object: no send buffer
    holds a copy."""
    _sim, machine, clients, driver = lean_rig[0]
    requests = [
        chunk for mouse in driver.mice if mouse.conn.source is not None
        for _end, chunk in mouse.conn.source._entries
    ]
    responses = [
        chunk for conn in machine.kernel.connections.values() if conn.source is not None
        for _end, chunk in conn.source._entries
    ]
    assert requests and responses
    assert all(chunk is driver.request for chunk in requests)
    assert all(chunk is responses[0] for chunk in responses)
    assert len(responses[0]) == driver.wl.rpc_response_bytes


def test_first_think_time_is_the_first_draw_of_the_mouse_stream():
    """Deriving a mouse's stream late changes none of its draws."""
    wl = ManyConnWorkload(**SMALL)
    sim, _machine, _clients, driver = build_many_connection_rig(
        linux_up_config(), OptimizationConfig.optimized(), wl
    )
    first_think = {}
    post = sim.post

    def recording_post(delay, fn, *args):
        if fn is _MiceApp._send_request:
            first_think.setdefault(args[0].index, delay)
        post(delay, fn, *args)

    sim.post = recording_post
    driver.start()
    sim.run(until=0.04)
    assert len(first_think) > 10
    for index, think in first_think.items():
        stream = SeededRng(wl.seed, "many").derive(f"mouse{index}")
        assert think == stream.expovariate(1.0 / wl.rpc_think_mean_s)
