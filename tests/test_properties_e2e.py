"""End-to-end property tests: aggregation invariants under random streams.

These drive randomized packet patterns through the *real* aggregation engine
and a real aggregation-aware connection, and check the §3.6 invariants that
all the specific-case tests instantiate:

1. conservation — every network packet's payload is delivered exactly once,
   in order;
2. equivalence — the ACK numbers generated match an unaggregated receiver's;
3. bounds — no aggregate exceeds the configured limit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.pool import BufferPool
from repro.core.aggregation import AggregationEngine
from repro.core.config import OptimizationConfig
from repro.cpu.cpu import Cpu
from repro.net.addresses import ip_from_str
from repro.net.flow import FlowKey
from repro.net.packet import make_data_segment
from repro.net.tcp_header import TcpFlags
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig, TcpConnection
from repro.tcp.state import TcpState

SERVER = ip_from_str("10.0.0.1")
CLIENTS = [ip_from_str(f"10.0.1.{i + 1}") for i in range(3)]
MSS = 1000


class _AckRecorder:
    def __init__(self):
        self.acks = []

    def send_packet(self, conn, pkt):
        pass

    def send_acks(self, conn, event):
        self.acks.extend(event.acks)


def _make_conn(sim, flow, aware):
    transport = _AckRecorder()
    conn = TcpConnection(
        flow.reverse(), TcpConfig(mss=MSS, aggregation_aware=aware),
        lambda: sim.now, sim, transport, iss=500,
    )
    conn.state = TcpState.ESTABLISHED
    conn.rcv_nxt = 0
    conn.snd_una = conn.snd_nxt = 501
    return conn, transport


#: Per-flow packet streams: list of (flow index, burst length) — each burst is
#: a run of in-sequence MSS segments; runs from different flows interleave.
bursts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=12)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(bursts, st.integers(min_value=1, max_value=20), st.integers(min_value=2, max_value=8))
def test_aggregation_invariants_random_streams(burst_list, limit, table_size):
    sim = Simulator()
    cpu = Cpu(sim)
    pool = BufferPool("prop")
    opt = OptimizationConfig.optimized(aggregation_limit=limit)
    opt.lookup_table_size = table_size

    # Receiver connections (aggregation-aware) and plain references.
    conns = {}
    plain = {}
    flows = {}
    next_seq = {}
    for idx, client_ip in enumerate(CLIENTS):
        flow = FlowKey(client_ip, 10000 + idx, SERVER, 5001)
        flows[idx] = flow
        conns[idx], _ = _make_conn(sim, flow, aware=True)
        plain[idx], _ = _make_conn(sim, flow, aware=False)
        next_seq[idx] = 0

    delivered_sizes = []

    def deliver(skb):
        idx = next(i for i, f in flows.items() if f == FlowKey.of_packet(skb.head))
        nr = skb.nr_segments
        assert nr <= limit, "aggregate exceeded configured limit"
        delivered_sizes.append(nr)
        conn = conns[idx]
        if nr > 1:
            conn.on_segment(
                skb.head,
                frag_acks=skb.frag_acks,
                frag_end_seqs=skb.frag_end_seqs,
                frag_windows=skb.frag_windows,
                nr_segments=nr,
                agg_len=skb.payload_len,
            )
        else:
            conn.on_segment(skb.head)
        skb.free()

    engine = AggregationEngine(cpu=cpu, costs=cpu.costs, opt=opt, pool=pool, deliver=deliver)

    total_packets = 0
    for flow_idx, burst_len in burst_list:
        pkts = []
        for _ in range(burst_len):
            seq = next_seq[flow_idx]
            pkt = make_data_segment(
                flows[flow_idx].src_ip, SERVER, flows[flow_idx].src_port, 5001,
                seq=seq, ack=501, payload_len=MSS, timestamp=(1, 0),
                flags=TcpFlags.ACK | TcpFlags.PSH,
            )
            pkt.csum_verified = True
            pkts.append(pkt)
            # The plain reference receiver sees every packet individually.
            plain[flow_idx].on_segment(pkt.copy())
            next_seq[flow_idx] = seq + MSS
        engine.enqueue(pkts)
        engine.run()  # each burst is one softirq batch
        total_packets += burst_len

    # 1. conservation: every byte delivered exactly once, in order.
    for idx in flows:
        assert conns[idx].rcv_nxt == next_seq[idx]
        assert conns[idx].stats.bytes_delivered == next_seq[idx]
        # 2. equivalence with the unaggregated reference.
        assert conns[idx].rcv_nxt == plain[idx].rcv_nxt
        assert conns[idx].transport.acks == plain[idx].transport.acks
        assert conns[idx]._segs_since_ack == plain[idx]._segs_since_ack
    # 3. accounting closes.
    assert sum(delivered_sizes) == total_packets
    assert engine.stats.packets_in == total_packets
    pool.assert_balanced()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(["data", "pure_ack", "sack", "dup"]), min_size=1, max_size=20),
    st.integers(min_value=2, max_value=20),
)
def test_mixed_traffic_never_reorders_within_flow(kinds, limit):
    """Whatever mix of eligible/ineligible packets arrives, delivery order
    within the flow equals arrival order of the underlying segments."""
    sim = Simulator()
    cpu = Cpu(sim)
    pool = BufferPool("prop2")
    opt = OptimizationConfig.optimized(aggregation_limit=limit)
    flow = FlowKey(CLIENTS[0], 10000, SERVER, 5001)

    arrival_order = []
    delivery_order = []

    def deliver(skb):
        for seg in skb.segments():
            delivery_order.append((seg.tcp.seq, seg.payload_len))
        skb.free()

    engine = AggregationEngine(cpu=cpu, costs=cpu.costs, opt=opt, pool=pool, deliver=deliver)

    seq = 0
    pkts = []
    for kind in kinds:
        if kind == "data":
            pkt = make_data_segment(flow.src_ip, SERVER, flow.src_port, 5001,
                                    seq=seq, ack=1, payload_len=MSS, timestamp=(1, 0),
                                    flags=TcpFlags.ACK | TcpFlags.PSH)
            seq += MSS
        elif kind == "pure_ack":
            pkt = make_data_segment(flow.src_ip, SERVER, flow.src_port, 5001,
                                    seq=seq, ack=1, payload_len=0, timestamp=(1, 0))
        elif kind == "sack":
            pkt = make_data_segment(flow.src_ip, SERVER, flow.src_port, 5001,
                                    seq=seq, ack=1, payload_len=MSS, timestamp=(1, 0),
                                    flags=TcpFlags.ACK | TcpFlags.PSH)
            pkt.tcp.options.sack_blocks = [(1, 2)]
            seq += MSS
        else:  # dup: repeat the previous sequence number
            pkt = make_data_segment(flow.src_ip, SERVER, flow.src_port, 5001,
                                    seq=max(0, seq - MSS), ack=1, payload_len=MSS,
                                    timestamp=(1, 0), flags=TcpFlags.ACK | TcpFlags.PSH)
        pkt.csum_verified = True
        arrival_order.append((pkt.tcp.seq, pkt.payload_len))
        pkts.append(pkt)
    engine.enqueue(pkts)
    engine.run()

    assert delivery_order == arrival_order
    pool.assert_balanced()
