"""TCP machine robustness: timers, Karn, backoff, SWS, determinism."""

import pytest

from repro.net.tcp_header import TcpFlags
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig, TcpConnection
from repro.tcp.source import ByteSource, InfiniteSource

import sys

sys.path.insert(0, "tests")
from helpers import make_pair  # noqa: E402


def test_rto_backoff_doubles(sim, monkeypatch):
    """Consecutive unanswered retransmissions back the timer off exponentially."""
    conn_a, conn_b, sock_a, sock_b, ta, _ = make_pair(sim)
    ta.filter_fn = lambda pkt: pkt.payload_len == 0  # drop all data forever
    rtx_times = []
    original = TcpConnection._retransmit_front

    def spy(self):
        if self is conn_a:
            rtx_times.append(sim.now)
        original(self)

    monkeypatch.setattr(TcpConnection, "_retransmit_front", spy)
    sock_a.send(b"x" * 100)
    # No RTT samples yet, so the first RTO is the RFC 6298 initial 1 s;
    # backoff then doubles: fires at ~1, 3, 7, 15 s.
    sim.run(until=sim.now + 16.0)
    assert len(rtx_times) >= 3
    gaps = [b - a for a, b in zip(rtx_times, rtx_times[1:])]
    for earlier, later in zip(gaps, gaps[1:]):
        assert later > 1.5 * earlier  # exponential backoff


def test_backoff_resets_after_progress(sim):
    conn_a, conn_b, sock_a, sock_b, ta, _ = make_pair(sim)
    state = {"drop": True}
    ta.filter_fn = lambda pkt: not (state["drop"] and pkt.payload_len > 0)
    sock_a.send(b"y" * 100)
    sim.run(until=sim.now + 1.5)  # a couple of RTOs
    assert conn_a._rto_backoff >= 1
    state["drop"] = False
    sim.run(until=sim.now + 5.0)
    assert sock_b.bytes_received == 100
    assert conn_a._rto_backoff == 0


def test_karn_no_rtt_sample_from_retransmission_without_timestamps(sim):
    """With timestamps disabled, an ACK for a retransmitted segment must not
    produce an RTT sample (Karn's algorithm)."""
    cfg = TcpConfig(materialize_payload=True, use_timestamps=False)
    conn_a, conn_b, sock_a, sock_b, ta, _ = make_pair(sim, config_a=cfg, config_b=cfg)
    state = {"dropped": False}

    def drop_first(pkt):
        if pkt.payload_len > 0 and not state["dropped"]:
            state["dropped"] = True
            return False
        return True

    ta.filter_fn = drop_first
    samples_before = conn_a.rtt.samples
    sock_a.send(b"z" * 100)
    sim.run(until=sim.now + 2.0)
    assert sock_b.bytes_received == 100
    # The only data segment was retransmitted: no sample may have been taken
    # from it.  (Timer-based sampling only; timestamps are off.)
    assert conn_a.rtt.samples == samples_before


def test_rtt_sampled_without_timestamps_on_clean_path(sim):
    cfg = TcpConfig(materialize_payload=True, use_timestamps=False)
    conn_a, conn_b, sock_a, sock_b, *_ = make_pair(sim, config_a=cfg, config_b=cfg)
    sock_a.send(InfiniteSource.pattern(0, 10 * 1448))
    sim.run(until=sim.now + 0.5)
    assert conn_a.rtt.samples > 0
    assert conn_a.rtt.last_sample < 0.01


def test_sws_avoidance_no_runt_segments(sim):
    """A window-crimped sender waits instead of emitting sub-MSS runts."""
    small = TcpConfig(materialize_payload=True, rcv_buf=10 * 1448, window_scale=1)
    conn_a, conn_b, sock_a, sock_b, ta, _ = make_pair(sim, config_b=small)
    conn_a.attach_source(InfiniteSource(materialize=True, seed=2, limit_bytes=200 * 1448))
    conn_a.app_wrote()
    sim.run(until=sim.now + 2.0)
    data = [p for p in ta.sent if p.payload_len > 0]
    runts = [p for p in data if p.payload_len < 1448]
    # Only the final segment of the stream may be sub-MSS.
    assert len(runts) <= 1
    assert sock_b.bytes_received == 200 * 1448


def test_deterministic_replay_of_lossy_transfer():
    """Identical seeds => bit-identical protocol evolution."""
    outcomes = []
    for _ in range(2):
        sim = Simulator()
        conn_a, conn_b, sock_a, sock_b, ta, _ = make_pair(sim)
        counter = {"n": 0}

        def drop_every_50th(pkt):
            if pkt.payload_len > 0:
                counter["n"] += 1
                if counter["n"] % 50 == 0:
                    return False
            return True

        ta.filter_fn = drop_every_50th
        conn_a.attach_source(InfiniteSource(materialize=True, seed=1, limit_bytes=100 * 1448))
        conn_a.app_wrote()
        sim.run(until=3.0)
        outcomes.append((
            sock_b.bytes_received,
            conn_a.stats.retransmits,
            conn_a.stats.fast_retransmits,
            conn_a.reno.cwnd,
            sim.events_fired,
        ))
    assert outcomes[0] == outcomes[1]


def test_fin_retransmitted_if_lost(sim):
    conn_a, conn_b, sock_a, sock_b, ta, _ = make_pair(sim)
    state = {"dropped": False}

    def drop_first_fin(pkt):
        if TcpFlags.FIN in pkt.tcp.flags and not state["dropped"]:
            state["dropped"] = True
            return False
        return True

    ta.filter_fn = drop_first_fin
    sock_a.close()
    sim.run(until=sim.now + 5.0)
    assert state["dropped"]
    assert sock_b.remote_closed
    fins = [p for p in ta.sent if TcpFlags.FIN in p.tcp.flags]
    assert len(fins) >= 2


def test_simultaneous_close(sim):
    conn_a, conn_b, sock_a, sock_b, *_ = make_pair(sim)
    sock_a.close()
    sock_b.close()
    sim.run(until=sim.now + 5.0)
    from repro.tcp.state import TcpState

    assert conn_a.state is TcpState.CLOSED
    assert conn_b.state is TcpState.CLOSED


def test_half_close_peer_can_still_send(sim):
    conn_a, conn_b, sock_a, sock_b, *_ = make_pair(sim)
    sock_a.close()  # A finished sending...
    sim.run(until=sim.now + 0.1)
    sock_b.send(b"late data from B")  # ...but B may still transmit
    sim.run(until=sim.now + 0.5)
    assert sock_a.payload_bytes() == b"late data from B"
