"""Tests for the packet slab (freelist recycling of wire packets)."""

import pytest

from repro.buffers.slab import PacketSlab, SlabViolation
from repro.net.addresses import ip_from_str
from repro.net.flow import FlowKey
from repro.net.packet import PacketTemplate, TcpFlags

SRC = ip_from_str("10.0.1.1")
DST = ip_from_str("10.0.0.1")


def _template(slab=None):
    tmpl = PacketTemplate(FlowKey(SRC, 40000, DST, 5001))
    tmpl.slab = slab
    return tmpl


def _make(tmpl, seq=100, ack=200, payload_len=1448):
    return tmpl.make(seq, ack, TcpFlags.ACK, 65535, payload_len=payload_len)


# ----------------------------------------------------------------------
# freelist mechanics
# ----------------------------------------------------------------------

def test_release_then_acquire_recycles_same_object():
    slab = PacketSlab()
    pkt = _make(_template())
    assert slab.release(pkt)
    assert pkt._slab_free
    assert slab.released == 1
    got = slab.acquire()
    assert got is pkt
    assert not got._slab_free
    assert slab.allocations_saved == 1


def test_double_release_raises():
    slab = PacketSlab()
    pkt = _make(_template())
    slab.release(pkt)
    with pytest.raises(SlabViolation, match="released to slab twice"):
        slab.release(pkt)


def test_materialized_payload_refused():
    """Byte-accurate packets may be retained by correctness checks; the
    slab must leave them to the GC."""
    slab = PacketSlab()
    tmpl = _template()
    pkt = _make(tmpl)
    pkt.payload = b"x" * 8
    pkt.payload_len = 8
    assert not slab.release(pkt)
    assert slab.refused == 1
    assert slab.free == []
    assert not pkt._slab_free


def test_capacity_bounds_freelist():
    slab = PacketSlab(capacity=2)
    tmpl = _template()
    pkts = [_make(tmpl) for _ in range(3)]
    assert slab.release(pkts[0])
    assert slab.release(pkts[1])
    assert not slab.release(pkts[2])
    assert slab.overflow == 1
    assert len(slab.free) == 2


def test_acquire_empty_returns_none():
    assert PacketSlab().acquire() is None


# ----------------------------------------------------------------------
# template integration
# ----------------------------------------------------------------------

def test_template_make_restamps_recycled_packet_fully():
    """A recycled packet must be indistinguishable from a fresh one: every
    header field comes from the template snapshot plus the make() call,
    nothing survives from its previous life."""
    slab = PacketSlab()
    tmpl = _template(slab)
    first = _make(tmpl, seq=111, ack=222, payload_len=1448)
    fresh = _make(_template(), seq=999, ack=888, payload_len=512)

    # Scribble on the dying packet: stale fields must not leak through.
    first.tcp.seq = 0xDEAD
    first.ip.total_length = 1
    first.lro_segs = 99
    slab.release(first)

    reused = _make(tmpl, seq=999, ack=888, payload_len=512)
    assert reused is first  # actually recycled
    assert slab.allocations_saved == 1
    assert reused.tcp.__dict__ == fresh.tcp.__dict__
    assert reused.ip.__dict__ == fresh.ip.__dict__
    assert reused.payload is None
    assert reused.payload_len == 512
    assert reused.wire_len == fresh.wire_len
    assert reused.lro_segs == 1
    assert not reused._slab_free


def test_template_without_slab_allocates_fresh():
    tmpl = _template()
    a, b = _make(tmpl), _make(tmpl)
    assert a is not b


def test_copy_clears_slab_flag():
    pkt = _make(_template())
    slab = PacketSlab()
    clone = pkt.copy()
    slab.release(pkt)
    # The clone is an independent object: freeing the original must not
    # poison it.
    assert not clone._slab_free
    assert slab.release(clone)


# ----------------------------------------------------------------------
# end-to-end: recycling must be invisible to the simulation
# ----------------------------------------------------------------------

def _stream_run():
    """Run the UP-optimized stream rig; return its slab and a fingerprint."""
    from repro.core.config import OptimizationConfig
    from repro.host.configs import linux_up_config
    from repro.workloads.stream import build_stream_rig

    sim, machine, clients, senders = build_stream_rig(
        linux_up_config(), OptimizationConfig.optimized()
    )
    sim.run(until=0.015)
    delivered = sum(s.bytes_received for s in machine.kernel.sockets.values())
    return machine.packet_slab, (sim.events_fired, delivered)


def test_stream_experiment_identical_with_and_without_slab(monkeypatch):
    """With the slab disconnected (the rig built with ``packet_slab =
    None``) the same workload must produce bit-identical results — the
    slab only changes allocator traffic, never behavior."""
    _, with_slab = _stream_run()
    monkeypatch.setattr("repro.host.machine.PacketSlab", lambda: None)
    slab, without = _stream_run()
    assert slab is None
    assert with_slab == without


def test_stream_rig_actually_recycles():
    slab, _ = _stream_run()
    assert slab.allocations_saved > 0
    assert slab.refused == 0
