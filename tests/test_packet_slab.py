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
    options, sack_blocks = first.tcp.options, first.tcp.options.sack_blocks

    # Scribble on the dying packet: stale fields must not leak through.
    first.tcp.seq = 0xDEAD
    first.ip.total_length = 1
    first.lro_segs = 99
    options.mss = 536
    sack_blocks.append((10, 20))
    slab.release(first)

    reused = _make(tmpl, seq=999, ack=888, payload_len=512)
    assert reused is first  # actually recycled
    assert slab.allocations_saved == 1
    # Re-stamping allocates nothing: even the options block and SACK list
    # are the dead packet's own.
    assert reused.tcp.options is options
    assert reused.tcp.options.sack_blocks is sack_blocks
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


def _fields(pkt):
    """Every header field and Packet slot of ``pkt``, options expanded."""
    tcp = dict(pkt.tcp.__dict__)
    tcp["options"] = dict(pkt.tcp.options.__dict__)
    slots = {name: getattr(pkt, name) for name in pkt.__slots__ if name not in ("ip", "tcp")}
    return dict(pkt.ip.__dict__), tcp, slots


def test_slab_clone_equals_fresh_copy_and_owns_its_options():
    """A clone re-stamped from the freelist is the fresh ``copy()`` field for
    field; it reuses the dead packet's header objects, options block and
    SACK list, and shares none of them with the original."""
    slab = PacketSlab()
    dead = _make(_template(), seq=5, ack=6)
    dead.tcp.options.sack_blocks.append((1, 2))
    dead.tcp.options.mss = 1460
    dead.lro_segs = 7
    dead.mem_token = (0, 1)
    parts = (dead.ip, dead.tcp, dead.tcp.options, dead.tcp.options.sack_blocks)
    slab.release(dead)

    head = _make(_template(), seq=100, ack=200, payload_len=0)
    head.tcp.options.sack_blocks.extend([(300, 400), (500, 600)])
    head.fill_checksums()
    head.rx_time = 1.5
    fresh = head.copy()
    clone = head.copy(slab)
    assert clone is dead
    assert (clone.ip, clone.tcp, clone.tcp.options, clone.tcp.options.sack_blocks) == parts
    assert slab.allocations_saved == 1
    assert _fields(clone) == _fields(fresh)
    assert not clone._slab_free
    assert clone.mem_token is None
    for a, b in ((clone.ip, head.ip), (clone.tcp, head.tcp),
                 (clone.tcp.options, head.tcp.options),
                 (clone.tcp.options.sack_blocks, head.tcp.options.sack_blocks)):
        assert a is not b
    clone.tcp.options.sack_blocks.clear()
    clone.tcp.options.timestamp = (9, 9)
    assert head.tcp.options.sack_blocks == [(300, 400), (500, 600)]
    assert head.tcp.options.timestamp == fresh.tcp.options.timestamp
    # With the freelist empty the clone is built fresh.
    assert _fields(head.copy(slab)) == _fields(fresh)
    assert slab.misses == 1


def test_expand_template_without_slab_leaves_the_freelist_alone():
    """The out-of-band expansion (the sanitizer's check) copies fresh
    packets; only the driver's own expansion draws from the slab."""
    from repro.buffers.pool import BufferPool
    from repro.core.ack_offload import expand_template

    slab = PacketSlab()
    spares = [_make(_template()) for _ in range(3)]
    for pkt in spares:
        slab.release(pkt)
    pool = BufferPool("t")
    pool.slab = slab
    head = _make(_template(), payload_len=0)
    head.fill_checksums()
    skb = pool.alloc(head)
    skb.template_acks = [200, 300]
    acks = expand_template(skb)
    assert slab.free == spares
    assert (slab.recycled, slab.misses) == (0, 0)
    assert not any(pkt in spares for pkt in acks)
    drawn = expand_template(skb, slab)
    assert [pkt.tcp.ack for pkt in drawn] == [pkt.tcp.ack for pkt in acks] == [200, 300]
    assert drawn == spares[:-3:-1]  # popped from the freelist's end
    assert slab.free == spares[:1]


def test_merged_lro_segment_returns_to_the_slab():
    from repro.nic.lro import LroEngine

    slab = PacketSlab()
    lro = LroEngine()
    lro.slab = slab
    tmpl = _template()
    head, second = _make(tmpl, seq=1000), _make(tmpl, seq=1000 + 1448)
    for pkt in (head, second):
        pkt.csum_verified = True
    assert lro.accept(head) == []
    assert lro.accept(second) == []
    assert slab.free == [second] and second._slab_free
    merged = lro.flush()
    assert merged == [head] and not head._slab_free
    assert head.lro_segs == 2


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


@pytest.mark.parametrize("config", ["linux_up_config", "linux_smp_config"])
def test_optimized_stream_rig_parks_only_what_is_in_flight(config):
    """The packet population is bounded by what is in flight: template-ACK
    clones come from the slab the clients release every ACK into, so the
    freelist does not grow by one dead packet per expanded ACK.  At 15 ms
    it held 2,714 (UP) and 2,704 (SMP) packets before the clones did."""
    from repro.core.config import OptimizationConfig
    from repro.host import configs
    from repro.workloads.stream import build_stream_rig

    sim, machine, _clients, _senders = build_stream_rig(
        getattr(configs, config)(), OptimizationConfig.optimized()
    )
    sim.run(until=0.015)
    slab = machine.packet_slab
    assert len(slab.free) < 256
    assert slab.overflow == 0
