"""Acknowledgment Offload tests (paper §4): template build and expansion."""

import pytest

from repro.buffers.pool import BufferPool
from repro.core.ack_offload import build_template_ack_skb, expand_template
from repro.net.addresses import ip_from_str
from repro.net.checksum import checksums_equivalent
from repro.net.flow import FlowKey
from repro.net.tcp_header import TcpFlags
from repro.sim.engine import Simulator
from repro.tcp.connection import AckEvent, TcpConfig, TcpConnection

SERVER = ip_from_str("10.0.0.1")
CLIENT = ip_from_str("10.0.1.1")


class _NullTransport:
    def send_packet(self, conn, pkt):
        pass

    def send_acks(self, conn, event):
        pass


def make_conn(sim):
    key = FlowKey(SERVER, 5001, CLIENT, 10000)
    conn = TcpConnection(key, TcpConfig(), lambda: sim.now, sim, _NullTransport(), iss=500)
    conn.state = conn.state.ESTABLISHED
    conn.rcv_nxt = 1000
    return conn


def make_event(acks, window=1000, ts=(42, 41)):
    return AckEvent(acks=list(acks), window=window, timestamp=ts)


def test_template_carries_all_ack_numbers(sim):
    conn = make_conn(sim)
    pool = BufferPool("t")
    event = make_event([1000, 2896, 5792])
    skb = build_template_ack_skb(conn, event, pool)
    assert skb.is_template_ack
    assert skb.template_acks == [1000, 2896, 5792]
    # The head packet is the FIRST ACK of the sequence (§4.2).
    assert skb.head.tcp.ack == 1000
    assert skb.head.is_pure_ack
    skb.free()
    pool.assert_balanced()


def test_empty_batch_rejected(sim):
    with pytest.raises(ValueError):
        build_template_ack_skb(make_conn(sim), make_event([]), BufferPool("t"))


def test_expansion_yields_one_packet_per_ack(sim):
    conn = make_conn(sim)
    skb = build_template_ack_skb(conn, make_event([100, 200, 300, 400]), BufferPool("t"))
    packets = expand_template(skb)
    assert [p.tcp.ack for p in packets] == [100, 200, 300, 400]
    assert all(p.is_pure_ack for p in packets)
    skb.free()


def test_expanded_acks_share_header_fields(sim):
    """§4.2: successive ACKs differ only in ACK number and checksum."""
    conn = make_conn(sim)
    skb = build_template_ack_skb(conn, make_event([100, 200], window=777, ts=(9, 8)), BufferPool("t"))
    a, b = expand_template(skb)
    assert a.tcp.window == b.tcp.window == 777
    assert a.tcp.options.timestamp == b.tcp.options.timestamp == (9, 8)
    assert a.tcp.seq == b.tcp.seq
    assert a.ip.src_ip == b.ip.src_ip
    assert a.tcp.ack != b.tcp.ack
    skb.free()


def test_incremental_checksum_matches_full_recompute(sim):
    """The driver's RFC 1624 patch must equal recomputing from scratch."""
    conn = make_conn(sim)
    acks = [1000, 2448, 3896, 12345678, 0xFFFFFF00]
    skb = build_template_ack_skb(conn, make_event(acks), BufferPool("t"))
    for pkt in expand_template(skb):
        full = pkt.tcp.compute_checksum(pkt.ip.src_ip, pkt.ip.dst_ip, b"")
        assert checksums_equivalent(pkt.tcp.checksum, full), hex(pkt.tcp.ack)
    skb.free()


def test_expansion_does_not_mutate_template(sim):
    conn = make_conn(sim)
    skb = build_template_ack_skb(conn, make_event([100, 200, 300]), BufferPool("t"))
    before = skb.head.tcp.ack
    expand_template(skb)
    expand_template(skb)  # idempotent
    assert skb.head.tcp.ack == before
    skb.free()


def test_expanding_non_template_rejected(sim):
    conn = make_conn(sim)
    pool = BufferPool("t")
    skb = pool.alloc(conn.build_ack_packet(100, make_event([100])))
    with pytest.raises(ValueError):
        expand_template(skb)
    skb.free()


def test_connection_batches_consecutive_acks_into_one_event(sim):
    """An aggregated packet of 2k fragments yields ONE AckEvent with k acks."""
    events = []

    class Recorder:
        def send_packet(self, conn, pkt):
            pass

        def send_acks(self, conn, event):
            events.append(event)

    key = FlowKey(SERVER, 5001, CLIENT, 10000)
    conn = TcpConnection(
        key, TcpConfig(aggregation_aware=True), lambda: sim.now, sim, Recorder(), iss=500
    )
    conn.state = conn.state.ESTABLISHED
    conn.rcv_nxt = 1000
    conn.snd_una = conn.snd_nxt = 501

    from repro.net.packet import make_data_segment

    mss = 1448
    head = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=1000, ack=501,
                             payload_len=mss, timestamp=(3, 2))
    end_seqs = [1000 + (i + 1) * mss for i in range(6)]
    conn.on_segment(
        head,
        frag_acks=[501] * 6,
        frag_end_seqs=end_seqs,
        frag_windows=[65535] * 6,
        nr_segments=6,
        agg_len=6 * mss,
    )
    assert len(events) == 1
    assert events[0].acks == [end_seqs[1], end_seqs[3], end_seqs[5]]
