"""Receive Aggregation engine unit tests (paper §3.1-§3.3, §3.5-§3.6)."""

import pytest

from repro.buffers.pool import BufferPool
from repro.core.aggregation import AggregationEngine, BypassReason
from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.cpu.cpu import Cpu
from repro.net.addresses import ip_from_str
from repro.net.ip import IP_MF
from repro.net.packet import make_data_segment
from repro.net.tcp_header import TcpFlags
from repro.sim.engine import Simulator

CLIENT = ip_from_str("10.0.1.1")
CLIENT2 = ip_from_str("10.0.1.2")
SERVER = ip_from_str("10.0.0.1")
MSS = 1448


def make_engine(limit=20, table_size=8):
    sim = Simulator()
    cpu = Cpu(sim)
    pool = BufferPool("aggr-test")
    delivered = []
    engine = AggregationEngine(
        cpu=cpu,
        costs=cpu.costs,
        opt=OptimizationConfig.optimized(aggregation_limit=limit)
        if limit
        else OptimizationConfig.optimized(),
        pool=pool,
        deliver=delivered.append,
    )
    engine.opt.lookup_table_size = table_size
    return engine, delivered, pool


def seg(seq, ack=0, length=MSS, src_ip=CLIENT, src_port=10000, ts=(5, 0), flags=TcpFlags.ACK | TcpFlags.PSH):
    pkt = make_data_segment(src_ip, SERVER, src_port, 5001, seq=seq, ack=ack,
                            payload_len=length, timestamp=ts, flags=flags)
    pkt.csum_verified = True  # NIC checksum offload (required for aggregation)
    return pkt


def stream(n, start_seq=1000, ack=77, **kw):
    return [seg(start_seq + i * MSS, ack=ack, **kw) for i in range(n)]


# ---------------------------------------------------------------- basic aggregation
def test_in_sequence_packets_coalesce_into_one_skb():
    engine, delivered, pool = make_engine()
    engine.enqueue(stream(5))
    engine.run()
    assert len(delivered) == 1
    skb = delivered[0]
    assert skb.nr_segments == 5
    assert skb.payload_len == 5 * MSS
    assert engine.stats.packets_in / engine.stats.host_packets_delivered == 5.0
    skb.free()
    pool.assert_balanced()


def test_header_rewrite_follows_section_3_2():
    engine, delivered, _ = make_engine()
    pkts = [seg(1000 + i * MSS, ack=100 + i, ts=(50 + i, 7)) for i in range(4)]
    pkts[-1].tcp.window = 1234
    engine.enqueue(pkts)
    engine.run()
    head = delivered[0].head
    # Sequence number of the first fragment, ACK/window/timestamp of the last.
    assert head.tcp.seq == 1000
    assert head.tcp.ack == 103
    assert head.tcp.window == 1234
    assert head.tcp.options.timestamp == (53, 7)
    # IP length covers all fragments; checksum recomputed and valid.
    assert head.ip.total_length == head.ip.header_len + head.tcp.header_len + 4 * MSS
    assert head.ip.checksum_ok()
    # TCP checksum NOT recomputed: skb is marked hardware-verified instead.
    assert delivered[0].csum_verified


def test_fragment_metadata_stored_for_modified_tcp():
    engine, delivered, _ = make_engine()
    pkts = [seg(1000 + i * MSS, ack=100 + i) for i in range(3)]
    engine.enqueue(pkts)
    engine.run()
    skb = delivered[0]
    assert skb.frag_acks == [100, 101, 102]
    assert skb.frag_end_seqs == [1000 + MSS, 1000 + 2 * MSS, 1000 + 3 * MSS]
    assert len(skb.frag_windows) == 3


def test_aggregation_limit_flushes_full_aggregates():
    engine, delivered, _ = make_engine(limit=4)
    engine.enqueue(stream(10))
    engine.run()
    assert [s.nr_segments for s in delivered] == [4, 4, 2]
    assert engine.stats.flush_limit == 2
    assert engine.stats.flush_work_conserving == 1


def test_work_conserving_flush_on_empty_queue():
    """§3.5: when the queue drains, partial aggregates are delivered at once."""
    engine, delivered, _ = make_engine(limit=20)
    engine.enqueue(stream(3))
    engine.run()
    assert len(delivered) == 1  # partial (3 < 20) still delivered
    assert engine.stats.flush_work_conserving == 1
    # A later batch starts fresh.
    engine.enqueue(stream(2, start_seq=1000 + 3 * MSS))
    engine.run()
    assert len(delivered) == 2


def test_single_packet_runs_deliver_immediately():
    """Table 1's precondition: a lone packet is never held back."""
    engine, delivered, _ = make_engine()
    engine.enqueue(stream(1))
    engine.run()
    assert len(delivered) == 1
    assert delivered[0].nr_segments == 1


# ---------------------------------------------------------------- flow separation
def test_different_flows_do_not_mix():
    engine, delivered, _ = make_engine()
    a = stream(3, src_ip=CLIENT, start_seq=1000)
    b = stream(3, src_ip=CLIENT2, start_seq=5000)
    interleaved = [pkt for pair in zip(a, b) for pkt in pair]
    engine.enqueue(interleaved)
    engine.run()
    assert len(delivered) == 2
    assert all(skb.nr_segments == 3 for skb in delivered)
    srcs = {skb.head.ip.src_ip for skb in delivered}
    assert srcs == {CLIENT, CLIENT2}


def test_same_ip_different_port_is_a_different_flow():
    engine, delivered, _ = make_engine()
    engine.enqueue(stream(2, src_port=10000) + stream(2, src_port=10001))
    engine.run()
    assert len(delivered) == 2


def test_lookup_table_eviction_lru():
    engine, delivered, _ = make_engine(table_size=2)
    engine.enqueue(
        stream(1, src_ip=CLIENT)
        + stream(1, src_ip=CLIENT2)
        + stream(1, src_ip=ip_from_str("10.0.1.3"))  # evicts CLIENT (LRU)
    )
    engine.run()
    assert engine.stats.flush_eviction == 1
    assert len(delivered) == 3


# ---------------------------------------------------------------- sequencing rules
def test_gap_in_sequence_flushes_and_restarts():
    engine, delivered, _ = make_engine()
    pkts = stream(2) + [seg(1000 + 5 * MSS)]  # hole after packet 2
    engine.enqueue(pkts)
    engine.run()
    assert len(delivered) == 2
    assert delivered[0].nr_segments == 2
    assert delivered[1].nr_segments == 1
    assert engine.stats.flush_mismatch == 1


def test_ack_number_regression_breaks_aggregation():
    """§3.1: later fragments must have ack >= earlier fragments'."""
    engine, delivered, _ = make_engine()
    p1, p2 = stream(2, ack=500)
    p2.tcp.ack = 400  # regress
    engine.enqueue([p1, p2])
    engine.run()
    assert len(delivered) == 2


def test_duplicate_sequence_not_aggregated():
    engine, delivered, _ = make_engine()
    p = seg(1000)
    engine.enqueue([p, seg(1000)])  # same seq twice (retransmission)
    engine.run()
    assert len(delivered) == 2


# ---------------------------------------------------------------- bypass rules (§3.1)
@pytest.mark.parametrize(
    "mutate,reason",
    [
        (lambda p: setattr(p, "payload_len", 0), BypassReason.PURE_ACK),
        (lambda p: setattr(p.tcp, "flags", TcpFlags.SYN), BypassReason.SPECIAL_FLAGS),
        (lambda p: setattr(p.tcp, "flags", TcpFlags.ACK | TcpFlags.FIN), BypassReason.SPECIAL_FLAGS),
        (lambda p: setattr(p.tcp, "flags", TcpFlags.ACK | TcpFlags.URG), BypassReason.SPECIAL_FLAGS),
        (lambda p: setattr(p.ip, "options", b"\x94\x04\x00\x00"), BypassReason.IP_OPTIONS),
        (lambda p: setattr(p.ip, "frag", IP_MF), BypassReason.IP_FRAGMENT),
        (lambda p: setattr(p, "csum_verified", False), BypassReason.NO_CSUM_OFFLOAD),
        (lambda p: setattr(p.ip, "checksum", p.ip.checksum ^ 0xFFFF), BypassReason.BAD_IP_CHECKSUM),
        (lambda p: p.tcp.options.sack_blocks.append((1, 2)), BypassReason.TCP_OPTIONS),
        (lambda p: setattr(p.tcp.options, "mss", 1460), BypassReason.TCP_OPTIONS),
    ],
)
def test_bypass_reasons(mutate, reason):
    engine, delivered, _ = make_engine()
    pkt = seg(1000)
    mutate(pkt)
    engine.enqueue([pkt])
    engine.run()
    assert engine.stats.bypassed == 1
    assert engine.stats.bypass_reasons == {reason.value: 1}
    assert len(delivered) == 1  # passed through unmodified
    assert delivered[0].nr_segments == 1


def test_bypass_flushes_partial_first_preserving_order():
    """§3.1: a partial aggregate is delivered before any subsequent
    unaggregated packet of the same connection."""
    engine, delivered, _ = make_engine()
    data = stream(3)
    pure_ack = seg(1000 + 3 * MSS, length=0, flags=TcpFlags.ACK)
    engine.enqueue(data + [pure_ack])
    engine.run()
    assert len(delivered) == 2
    assert delivered[0].nr_segments == 3  # the aggregate first
    assert delivered[1].head.is_pure_ack
    assert engine.stats.flush_bypass_ordering == 1


def test_bypass_of_other_flow_does_not_flush():
    engine, delivered, _ = make_engine()
    engine.enqueue(stream(2, src_ip=CLIENT))
    bad = seg(9999, src_ip=CLIENT2)
    bad.csum_verified = False
    engine.enqueue([bad])
    engine.run()
    # Bypass (CLIENT2) delivered; CLIENT partial flushed only at queue-empty.
    assert engine.stats.flush_bypass_ordering == 0
    assert engine.stats.flush_work_conserving == 1


def test_timestamp_presence_mismatch_breaks_chain():
    engine, delivered, _ = make_engine()
    with_ts = seg(1000, ts=(5, 0))
    without_ts = seg(1000 + MSS, ts=None)
    engine.enqueue([with_ts, without_ts])
    engine.run()
    assert len(delivered) == 2


# ---------------------------------------------------------------- cost accounting
def test_costs_charged_to_aggr_and_buffer_categories():
    engine, delivered, _ = make_engine()
    engine.enqueue(stream(5))
    engine.run()
    prof = engine.cpu.profiler.cycles
    costs = engine.costs
    # Early demux (miss + match) charged once per network packet.
    expected_aggr = 5 * (costs.mac_rx_processing + costs.aggr_match_per_packet)
    expected_aggr += 4 * costs.aggr_chain_per_fragment
    expected_aggr += costs.aggr_finalize_per_host_packet
    assert prof[Category.AGGR] == pytest.approx(expected_aggr)
    # One sk_buff allocation for the whole aggregate (§3.5).
    assert prof[Category.BUFFER] == pytest.approx(costs.skb_alloc)


def test_limit_one_charges_no_rewrite_cost():
    engine, delivered, _ = make_engine(limit=1)
    engine.enqueue(stream(4))
    engine.run()
    assert len(delivered) == 4
    prof = engine.cpu.profiler.cycles
    costs = engine.costs
    expected = 4 * (costs.mac_rx_processing + costs.aggr_match_per_packet + costs.aggr_deliver_single)
    assert prof[Category.AGGR] == pytest.approx(expected)


def test_invalid_limit_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        AggregationEngine(
            cpu=Cpu(sim),
            costs=Cpu(sim).costs,
            opt=OptimizationConfig(receive_aggregation=True, aggregation_limit=0),
            pool=BufferPool("x"),
            deliver=lambda s: None,
        )


def test_payload_bytes_preserved_through_aggregation():
    engine, delivered, _ = make_engine()
    payloads = [bytes([i]) * 100 for i in range(4)]
    pkts = []
    offset = 1000
    for body in payloads:
        pkt = make_data_segment(CLIENT, SERVER, 10000, 5001, seq=offset, ack=1,
                                payload=body, timestamp=(5, 0))
        pkt.csum_verified = True
        pkts.append(pkt)
        offset += len(body)
    engine.enqueue(pkts)
    engine.run()
    assert delivered[0].payload_bytes() == b"".join(payloads)
