"""Tests for the many-connection workload generator (scale regime)."""

import gc

import pytest

from repro.analysis.speed import objects_per_endpoint
from repro.core.config import OptimizationConfig
from repro.host.configs import linux_up_config
from repro.workloads.many import (
    ManyConnWorkload,
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
    from repro.analysis import sanitizer as sanitizer_mod

    fresh = not sanitizer_mod.is_installed()
    handle = sanitizer_mod.install(deep_every=64) if fresh else None
    try:
        r = _run(n_connections=30, duration=0.03, warmup=0.015,
                 arrival_rate_hz=1000.0)
    finally:
        if handle is not None:
            sanitizer_mod.uninstall(handle)
    assert r.transactions > 0
    assert r.allocations_saved > 0


#: GC-tracked objects per connection endpoint on the 1k rig at 30 ms,
#: measured: 30.5 on CPython 3.9 and 3.10, 29.3 on 3.11, 3.12 and 3.13
#: (before 3.11 every instance that is not slotted has a dict of its own).
#: The bound is the highest plus about 15% headroom.  Before connection
#: state was slotted and shared: 43.4 on 3.10, 40.2 on 3.11 and 3.12.
OBJECTS_PER_ENDPOINT_BOUND = 35.0


def test_connection_state_footprint():
    """Per-connection state stays small at scale: the cyclic collector's
    full passes scan every tracked object, so each one an endpoint holds
    costs wall time on the 10k point."""
    gc.collect()
    objects_before = len(gc.get_objects())
    _result, rig = run_many_connection_rig(
        linux_up_config(), OptimizationConfig.optimized(),
        ManyConnWorkload(n_connections=1000, arrival_rate_hz=2000.0),
        duration=0.01, warmup=0.02,
    )
    per_endpoint = objects_per_endpoint(rig, objects_before)
    _sim, machine, clients, driver = rig
    server = list(machine.kernel.connections.values())
    client = list(clients[0].connections.values())
    for conn in (server[0], client[0]):
        for obj in (conn, conn.stats, conn.reno, conn.rtt):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert not hasattr(driver.mice[0].sock, "__dict__")  # TcpSocket
    assert not hasattr(next(iter(machine.kernel.sockets.values())), "__dict__")
    for a, b in (server[:2], client[:2]):
        assert a.config is b.config
        assert a.clock is b.clock
    for conn in server + client:
        assert conn._template._flow_key is conn.key
    assert per_endpoint < OBJECTS_PER_ENDPOINT_BOUND
