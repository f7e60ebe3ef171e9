"""TCP behavior under sustained loss: backoff, Karn, recovery precedence.

Complements tests/test_tcp_robustness.py (single-drop cases) with the
sustained-loss scenarios the fault-injection subsystem leans on: every
recovery mechanism must engage in the right order (fast retransmit before
RTO, go-back-N only after an RTO) and the delivered stream must stay exact
no matter how hostile the wire."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig, TcpConnection
from repro.tcp.source import InfiniteSource

import sys

sys.path.insert(0, "tests")
from helpers import make_pair  # noqa: E402

MSS = 1448


def _stream(conn, nbytes, seed=3):
    conn.attach_source(InfiniteSource(materialize=True, seed=seed, limit_bytes=nbytes))
    conn.app_wrote()


def test_backoff_doubles_under_sustained_loss(sim, monkeypatch):
    """With every data segment lost, successive RTOs space out
    exponentially and the backoff counter climbs."""
    conn_a, _conn_b, sock_a, _sock_b, ta, _ = make_pair(sim)
    ta.filter_fn = lambda pkt: pkt.payload_len == 0  # black-hole all data
    rto_times = []
    original = TcpConnection._rto_fire

    def spy(self):
        if self is conn_a:
            rto_times.append(sim.now)
        original(self)

    monkeypatch.setattr(TcpConnection, "_rto_fire", spy)
    sock_a.send(b"x" * 100)
    sim.run(until=sim.now + 20.0)
    assert conn_a.stats.rtos >= 4
    assert conn_a._rto_backoff >= 4
    gaps = [b - a for a, b in zip(rto_times, rto_times[1:])]
    for earlier, later in zip(gaps, gaps[1:]):
        assert later == pytest.approx(2 * earlier, rel=0.05)


def test_karn_rule_under_sustained_first_transmission_loss(sim):
    """Drop the *first* transmission of every data segment: all delivered
    data is a retransmission, so (timestamps off) no RTT sample may ever be
    taken — yet the transfer still completes."""
    cfg = TcpConfig(materialize_payload=True, use_timestamps=False)
    conn_a, _conn_b, _sock_a, sock_b, ta, _ = make_pair(sim, config_a=cfg, config_b=cfg)
    seen = set()

    def drop_first_tx(pkt):
        if pkt.payload_len == 0:
            return True
        if pkt.tcp.seq not in seen:
            seen.add(pkt.tcp.seq)
            return False
        return True

    ta.filter_fn = drop_first_tx
    samples_before = conn_a.rtt.samples
    nbytes = 20 * MSS
    _stream(conn_a, nbytes)
    sim.run(until=60.0)
    assert sock_b.bytes_received == nbytes
    assert conn_a.stats.retransmits >= 20
    assert conn_a.rtt.samples == samples_before
    assert sock_b.payload_bytes() == InfiniteSource.pattern(0, nbytes, seed=3)


def test_fast_retransmit_fires_before_rto(sim):
    """One hole with plenty of following segments: three dupACKs repair it
    long before the retransmission timer would — no RTO may fire."""
    conn_a, _conn_b, _sock_a, sock_b, ta, _ = make_pair(sim)
    state = {"n": 0}

    def drop_fifth_segment(pkt):
        if pkt.payload_len > 0:
            state["n"] += 1
            if state["n"] == 5:
                return False
        return True

    ta.filter_fn = drop_fifth_segment
    nbytes = 60 * MSS
    _stream(conn_a, nbytes)
    sim.run(until=2.0)
    assert sock_b.bytes_received == nbytes
    assert conn_a.stats.fast_retransmits == 1
    assert conn_a.stats.rtos == 0
    assert conn_a.stats.retransmits == 1  # exactly the hole, nothing more


def test_rto_go_back_n_repairs_a_burst_without_duplicates(sim):
    """Drop a whole flight: no dupACKs can arrive, so recovery must go
    through the RTO and the go-back-N slow-start retransmission — and the
    delivered stream must come out exact, with no byte delivered twice."""
    conn_a, _conn_b, _sock_a, sock_b, ta, _ = make_pair(sim)
    state = {"n": 0}
    seen = set()

    def drop_tail_burst_once(pkt):
        # Drop the *first transmission* of every segment from the 5th on:
        # the burst reaches the end of the stream, so no later arrival can
        # generate the dupACKs fast retransmit needs.
        if pkt.payload_len > 0 and pkt.tcp.seq not in seen:
            seen.add(pkt.tcp.seq)
            state["n"] += 1
            if state["n"] >= 5:
                return False
        return True

    ta.filter_fn = drop_tail_burst_once
    nbytes = 20 * MSS
    _stream(conn_a, nbytes)
    sim.run(until=10.0)
    assert sock_b.bytes_received == nbytes
    assert conn_a.stats.rtos >= 1
    assert conn_a.stats.fast_retransmits == 0  # no dupACKs were possible
    assert conn_a.stats.retransmits >= 16  # the whole dropped burst again
    assert sock_b.payload_bytes() == InfiniteSource.pattern(0, nbytes, seed=3)
    assert conn_a._rto_backoff == 0  # progress reset the backoff


def test_multi_hole_fast_recovery_beats_per_hole_timeouts(sim):
    """Several separated holes in one window: partial ACKs drive hole-by-
    hole retransmission inside fast recovery, so total repair time is far
    below one RTO per hole."""
    conn_a, _conn_b, _sock_a, sock_b, ta, _ = make_pair(sim)
    holes = {7, 13, 19}
    state = {"n": 0}

    def drop_holes(pkt):
        if pkt.payload_len > 0:
            state["n"] += 1
            if state["n"] in holes:
                return False
        return True

    ta.filter_fn = drop_holes
    nbytes = 80 * MSS
    _stream(conn_a, nbytes)
    t = 0.0
    while sock_b.bytes_received < nbytes and t < 3.0:
        t += 0.01
        sim.run(until=t)
    done_at = t
    assert sock_b.bytes_received == nbytes
    assert conn_a.stats.fast_retransmits >= 1
    assert conn_a.stats.retransmits >= len(holes)
    # One timeout per hole would be >= 0.6 s even at the 200 ms floor;
    # partial-ACK-driven recovery must beat that comfortably.
    assert done_at < 0.5
    assert conn_a.stats.rtos <= 1
    assert sock_b.payload_bytes() == InfiniteSource.pattern(0, nbytes, seed=3)


def test_sustained_random_loss_delivers_exact_stream():
    """10% deterministic-pattern loss for the whole transfer: every
    recovery mechanism interleaves, the stream still arrives byte-exact,
    and a replay is bit-identical."""
    outcomes = []
    for _ in range(2):
        sim = Simulator()
        conn_a, _conn_b, _sock_a, sock_b, ta, _ = make_pair(sim)
        state = {"n": 0}

        def drop_every_tenth(pkt):
            if pkt.payload_len > 0:
                state["n"] += 1
                if state["n"] % 10 == 0:
                    return False
            return True

        ta.filter_fn = drop_every_tenth
        nbytes = 150 * MSS
        _stream(conn_a, nbytes)
        sim.run(until=30.0)
        assert sock_b.bytes_received == nbytes
        assert sock_b.payload_bytes() == InfiniteSource.pattern(0, nbytes, seed=3)
        assert conn_a.stats.retransmits > 0
        outcomes.append((
            sim.events_fired,
            conn_a.stats.retransmits,
            conn_a.stats.fast_retransmits,
            conn_a.stats.rtos,
        ))
    assert outcomes[0] == outcomes[1]
