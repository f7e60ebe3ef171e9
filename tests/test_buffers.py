"""sk_buff and buffer-pool accounting tests."""

import pytest

from repro.buffers.pool import BufferPool
from repro.net.addresses import ip_from_str
from repro.net.packet import make_data_segment

SRC = ip_from_str("10.0.1.1")
DST = ip_from_str("10.0.0.1")


def _pkt(seq=0, length=100, ack=0):
    return make_data_segment(SRC, DST, 1, 2, seq=seq, ack=ack, payload_len=length, timestamp=(0, 0))


def test_alloc_free_balance():
    pool = BufferPool("t")
    skb = pool.alloc(_pkt())
    assert pool.stats.outstanding == 1
    skb.free()
    assert pool.stats.outstanding == 0
    pool.assert_balanced()


def test_double_free_raises():
    pool = BufferPool("t")
    skb = pool.alloc(_pkt())
    skb.free()
    with pytest.raises(RuntimeError):
        skb.free()


def test_leak_detection():
    pool = BufferPool("t")
    pool.alloc(_pkt())
    with pytest.raises(AssertionError):
        pool.assert_balanced()


def test_capacity_exhaustion_returns_none():
    pool = BufferPool("t", capacity=2)
    a = pool.alloc(_pkt())
    b = pool.alloc(_pkt())
    assert pool.alloc(_pkt()) is None
    a.free()
    assert pool.alloc(_pkt()) is not None
    del b


def test_peak_outstanding_tracked():
    pool = BufferPool("t")
    skbs = [pool.alloc(_pkt()) for _ in range(5)]
    for skb in skbs:
        skb.free()
    assert pool.stats.peak_outstanding == 5
    assert pool.stats.allocs == 5
    assert pool.stats.frees == 5


def test_skb_fragment_geometry():
    pool = BufferPool("t")
    skb = pool.alloc(_pkt(seq=0, length=1448))
    assert skb.nr_segments == 1
    assert skb.nr_frags == 0
    assert not skb.is_aggregated
    skb.chain(_pkt(seq=1448, length=1448))
    skb.chain(_pkt(seq=2896, length=100))
    assert skb.nr_segments == 3
    assert skb.payload_len == 1448 + 1448 + 100
    assert skb.is_aggregated
    assert skb.end_seq == 2996
    skb.free()


def test_skb_payload_bytes_concatenates_fragments():
    pool = BufferPool("t")
    head = make_data_segment(SRC, DST, 1, 2, seq=0, ack=0, payload=b"aaa")
    skb = pool.alloc(head)
    skb.chain(make_data_segment(SRC, DST, 1, 2, seq=3, ack=0, payload=b"bb"))
    assert skb.payload_bytes() == b"aaabb"
    skb.free()


def test_skb_payload_bytes_requires_materialized_payload():
    pool = BufferPool("t")
    skb = pool.alloc(_pkt(length=10))
    with pytest.raises(ValueError):
        skb.payload_bytes()
    skb.free()


def test_template_ack_flag():
    pool = BufferPool("t")
    skb = pool.alloc(_pkt(length=0))
    assert not skb.is_template_ack
    skb.template_acks = [100, 200]
    assert skb.is_template_ack
    skb.free()


def test_segments_order():
    pool = BufferPool("t")
    skb = pool.alloc(_pkt(seq=0, length=10))
    f1 = _pkt(seq=10, length=10)
    skb.chain(f1)
    assert skb.segments() == [skb.head, f1]
    skb.free()
