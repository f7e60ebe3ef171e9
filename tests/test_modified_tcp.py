"""Modified TCP layer tests (paper §3.4): the connection must behave exactly
as if every network packet had been processed individually."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modified_tcp import acks_for_fragments, replay_fragment_acks
from repro.net.addresses import ip_from_str
from repro.net.flow import FlowKey
from repro.net.packet import make_data_segment
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig, TcpConnection, _RtxRecord
from repro.tcp.reno import RenoState
from repro.tcp.seqmath import seq_le
from repro.tcp.source import InfiniteSource
from repro.tcp.state import TcpState

SERVER = ip_from_str("10.0.0.1")
CLIENT = ip_from_str("10.0.1.1")
MSS = 1448


class _Recorder:
    def __init__(self):
        self.packets = []
        self.events = []

    def send_packet(self, conn, pkt):
        self.packets.append(pkt)

    def send_acks(self, conn, event):
        self.events.append(event)


def make_established(sim, aggregation_aware):
    key = FlowKey(SERVER, 5001, CLIENT, 10000)
    transport = _Recorder()
    conn = TcpConnection(
        key, TcpConfig(aggregation_aware=aggregation_aware),
        lambda: sim.now, sim, transport, iss=500,
    )
    conn.state = TcpState.ESTABLISHED
    conn.rcv_nxt = 1000
    conn.snd_una = conn.snd_nxt = 501
    return conn, transport


def data_pkt(seq, ack=501, length=MSS):
    return make_data_segment(CLIENT, SERVER, 10000, 5001, seq=seq, ack=ack,
                             payload_len=length, timestamp=(3, 2))


def feed_aggregated(conn, n_frags, start_seq=1000, acks=None):
    end_seqs = [start_seq + (i + 1) * MSS for i in range(n_frags)]
    frag_acks = acks if acks is not None else [501] * n_frags
    head = data_pkt(start_seq, ack=frag_acks[0])
    head.tcp.ack = frag_acks[-1]
    conn.on_segment(
        head,
        frag_acks=frag_acks,
        frag_end_seqs=end_seqs,
        frag_windows=[65535] * n_frags,
        nr_segments=n_frags,
        agg_len=n_frags * MSS,
    )
    return end_seqs


# ---------------------------------------------------------------- reference functions
def test_acks_for_fragments_every_second_segment():
    acks, carry = acks_for_fragments([100, 200, 300, 400], 0)
    assert acks == [200, 400]
    assert carry == 0


def test_acks_for_fragments_carry_in_and_out():
    acks, carry = acks_for_fragments([100, 200, 300], 1)
    assert acks == [100, 300]
    assert carry == 0


def test_replay_fragment_acks_grows_per_ack():
    reno = RenoState(mss=1000)
    start = reno.cwnd
    reno, una = replay_fragment_acks(reno, 0, [1000, 2000, 3000])
    assert una == 3000
    assert reno.cwnd == start + 3000  # slow start: +MSS per ACK, 3 ACKs


def test_replay_ignores_stale_acks():
    reno = RenoState(mss=1000)
    start = reno.cwnd
    reno, una = replay_fragment_acks(reno, 5000, [4000, 5000, 6000])
    assert una == 6000
    assert reno.cwnd == start + 1000  # only one ack advanced


# ---------------------------------------------------------------- equivalence
def test_ack_generation_matches_unaggregated_receiver(sim):
    """k fragments in one aggregate must produce the same ACK numbers as k
    individual packets (§3.4 case 2)."""
    agg_conn, agg_t = make_established(sim, aggregation_aware=True)
    plain_conn, plain_t = make_established(sim, aggregation_aware=False)

    feed_aggregated(agg_conn, 7)
    for i in range(7):
        plain_conn.on_segment(data_pkt(1000 + i * MSS))

    agg_acks = [a for e in agg_t.events for a in e.acks]
    plain_acks = [a for e in plain_t.events for a in e.acks]
    assert agg_acks == plain_acks
    assert agg_conn.rcv_nxt == plain_conn.rcv_nxt
    assert agg_conn._segs_since_ack == plain_conn._segs_since_ack


def test_ack_counter_carries_across_aggregates(sim):
    conn, t = make_established(sim, aggregation_aware=True)
    feed_aggregated(conn, 3, start_seq=1000)          # acks at frag 2, carry 1
    feed_aggregated(conn, 3, start_seq=1000 + 3 * MSS)  # acks at frags 1 and 3
    acks = [a for e in t.events for a in e.acks]
    assert acks == [1000 + 2 * MSS, 1000 + 4 * MSS, 1000 + 6 * MSS]


def test_cwnd_growth_matches_individual_acks(sim):
    """§3.4 case 1: send-side cwnd must grow per fragment ACK."""
    agg_conn, _ = make_established(sim, aggregation_aware=True)
    plain_conn, _ = make_established(sim, aggregation_aware=False)
    for conn in (agg_conn, plain_conn):
        conn.snd_nxt = 501 + 10 * MSS  # pretend data in flight
        conn.reno.cwnd = 10 * MSS

    acks = [501 + (i + 1) * MSS for i in range(6)]
    feed_aggregated(agg_conn, 6, acks=acks)
    for i, ack in enumerate(acks):
        plain_conn.on_segment(data_pkt(1000 + i * MSS, ack=ack))

    assert agg_conn.reno.cwnd == plain_conn.reno.cwnd
    assert agg_conn.snd_una == plain_conn.snd_una
    assert agg_conn.stats.frag_acks_processed == 6


def test_unaware_layer_undercounts_acks(sim):
    """Without §3.4, one aggregated packet = one ACK worth of cwnd growth —
    the bug the modified TCP layer exists to fix."""
    aware, _ = make_established(sim, aggregation_aware=True)
    unaware, _ = make_established(sim, aggregation_aware=False)
    for conn in (aware, unaware):
        conn.snd_nxt = 501 + 10 * MSS
        conn.reno.cwnd = 10 * MSS

    acks = [501 + (i + 1) * MSS for i in range(6)]
    feed_aggregated(aware, 6, acks=acks)
    feed_aggregated(unaware, 6, acks=acks)  # metadata present but ignored
    assert aware.reno.cwnd > unaware.reno.cwnd
    assert aware.reno.cwnd - unaware.reno.cwnd == 5 * MSS  # 6 acks vs 1


def test_delivered_bytes_equal_for_aggregated_and_plain(sim):
    agg_conn, _ = make_established(sim, aggregation_aware=True)
    plain_conn, _ = make_established(sim, aggregation_aware=False)
    feed_aggregated(agg_conn, 5)
    for i in range(5):
        plain_conn.on_segment(data_pkt(1000 + i * MSS))
    assert agg_conn.stats.bytes_delivered == plain_conn.stats.bytes_delivered == 5 * MSS


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8))
def test_ack_equivalence_property(frag_counts):
    """For ANY partition of a packet train into aggregates, the generated
    ACK numbers equal the unaggregated receiver's."""
    sim = Simulator()
    agg_conn, agg_t = make_established(sim, aggregation_aware=True)
    plain_conn, plain_t = make_established(sim, aggregation_aware=False)

    seq = 1000
    for count in frag_counts:
        feed_aggregated(agg_conn, count, start_seq=seq)
        seq += count * MSS
    seq = 1000
    total = sum(frag_counts)
    for i in range(total):
        plain_conn.on_segment(data_pkt(seq))
        seq += MSS

    agg_acks = [a for e in agg_t.events for a in e.acks]
    plain_acks = [a for e in plain_t.events for a in e.acks]
    assert agg_acks == plain_acks
    assert agg_conn.rcv_nxt == plain_conn.rcv_nxt


# ---------------------------------------------------------------- replay early exit
def _replay_reference(conn, pkt, frag_acks, end_seqs, windows, agg_len):
    """``on_segment`` for an aggregated data segment on an established
    connection, with the §3.4 ACK replay as a plain per-fragment loop: the
    reference the replay's early exit must match."""
    conn.stats.segs_in += len(frag_acks)
    ts = pkt.tcp.options.timestamp
    if ts is not None and seq_le(pkt.tcp.seq, conn.rcv_nxt):
        conn.ts_recent = ts[0]
    last = len(frag_acks) - 1
    for i, ack in enumerate(frag_acks):
        conn.stats.frag_acks_processed += 1
        conn._process_ack(ack, windows[i], pkt, count_dup=(i == last))
    conn._process_data(pkt, agg_len, None, end_seqs)


def _timer_state(timer):
    return None if timer is None else (timer.time, timer.seq, timer.cancelled)


def _observable(conn, sim, transport):
    stats = conn.stats
    return {
        "snd": (conn.snd_una, conn.snd_nxt, conn.snd_wnd, conn.snd_wl1, conn.snd_wl2),
        "persist": _timer_state(conn._persist_timer),
        "rto": _timer_state(conn._rto_timer),
        "delack": _timer_state(conn._delack_timer),
        "reno": (conn.reno.cwnd, conn.reno.ssthresh, conn.reno.dup_acks, conn.reno.recover),
        "stats": {name: getattr(stats, name) for name in type(stats).__slots__},
        "rcv": (conn.rcv_nxt, conn.ts_recent, conn._segs_since_ack),
        "sim": (sim._seq, sim.pending),
        "sent": [
            (p.tcp.seq, p.tcp.ack, int(p.tcp.flags), p.tcp.window, p.payload_len,
             p.tcp.options.timestamp)
            for p in transport.packets
        ],
        "acks": [(e.acks, e.window, e.timestamp, e.sack_blocks) for e in transport.events],
    }


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    data=st.data(),
    with_source=st.booleans(),
    in_flight=st.sampled_from([0, 0, 1, 3]),
    persist_pending=st.booleans(),
    wscale=st.sampled_from([0, 2]),
    wl1=st.sampled_from([999, 1000, 1001]),
    wl2_offset=st.sampled_from([-1, 0, 1]),
    tsecr=st.sampled_from([0, 2]),
)
def test_replay_early_exit_matches_per_fragment_replay(
    n, data, with_source, in_flight, persist_pending, wscale, wl1, wl2_offset, tsecr
):
    """The §3.4 replay's early exit (no source, nothing in flight, every
    fragment ACK at snd_una, no zero window) must leave a connection exactly
    as the per-fragment ``_process_ack`` loop does, on every input."""
    steps = data.draw(st.lists(st.sampled_from([0, 0, 0, MSS]), min_size=n, max_size=n))
    windows = data.draw(
        st.lists(st.sampled_from([0, 1, 4 * MSS, 65535, 65535]), min_size=n, max_size=n)
    )
    frag_acks = []
    ack = 501
    for step in steps:
        ack += step
        frag_acks.append(ack)
    end_seqs = [1000 + (i + 1) * MSS for i in range(n)]

    twins = []
    for _ in range(2):
        sim = Simulator()
        conn, transport = make_established(sim, aggregation_aware=True)
        conn.peer_wscale = wscale
        conn.snd_wnd = 8 * MSS
        conn.snd_wl1 = wl1
        conn.snd_wl2 = 501 + wl2_offset
        if with_source:
            conn.attach_source(InfiniteSource(limit_bytes=40 * MSS))
        for k in range(in_flight):
            conn.rtx_queue.append(_RtxRecord(501 + k * MSS, MSS, False, False, 0.0))
        conn.snd_nxt = 501 + in_flight * MSS
        if in_flight:
            conn._arm_rto()
        if persist_pending:
            conn._arm_persist()
        head = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=1000, ack=frag_acks[0],
                                 payload_len=MSS, timestamp=(3, tsecr))
        # Aggregation's §3.2 rewrite: the head carries the last fragment's
        # ACK and window.
        head.tcp.ack = frag_acks[-1]
        head.tcp.window = windows[-1]
        twins.append((conn, sim, transport, head))

    conn, sim, transport, head = twins[0]
    conn.on_segment(head, frag_acks, end_seqs, windows, n, None, n * MSS)
    ref, ref_sim, ref_transport, ref_head = twins[1]
    _replay_reference(ref, ref_head, frag_acks, end_seqs, windows, n * MSS)

    assert _observable(conn, sim, transport) == _observable(ref, ref_sim, ref_transport)
