"""Packet-capture tooling tests."""

import pytest

from repro.net.addresses import ip_from_str
from repro.net.flow import FlowKey
from repro.net.packet import make_data_segment
from repro.net.tcp_header import TcpFlags
from repro.sim.capture import PacketCapture
from repro.sim.link import Link

A = ip_from_str("10.0.0.1")
B = ip_from_str("10.0.0.2")


def _pkt(seq=0, length=100, sport=1, flags=TcpFlags.ACK):
    return make_data_segment(A, B, sport, 80, seq=seq, ack=0, payload_len=length, flags=flags)


def test_capture_records_with_timestamps(sim):
    cap = PacketCapture(sim)
    sim.schedule(1e-3, cap.record, _pkt())
    sim.schedule(2e-3, cap.record, _pkt(seq=100))
    sim.run()
    assert len(cap) == 2
    assert cap.records[0].time == pytest.approx(1e-3)


def test_tap_link_preserves_delivery(sim):
    got = []
    link = Link(sim, 1e9, 0.0, sink=got.append)
    cap = PacketCapture(sim)
    cap.tap_link(link)
    link.send(_pkt())
    sim.run()
    assert len(got) == 1
    assert len(cap) == 1


def test_filters(sim):
    cap = PacketCapture(sim)
    cap.record(_pkt(length=100, sport=1))
    cap.record(_pkt(length=0, sport=2))
    cap.record(_pkt(length=50, sport=1, flags=TcpFlags.ACK | TcpFlags.FIN))
    assert len(cap.data_packets()) == 2
    assert len(cap.pure_acks()) == 1
    assert len(cap.by_flow(FlowKey(A, 1, B, 80))) == 2


def test_throughput_and_bytes(sim):
    cap = PacketCapture(sim)
    sim.schedule(0.0, cap.record, _pkt(length=1000))
    sim.schedule(1.0, cap.record, _pkt(seq=1000, length=1000))
    sim.run()
    assert cap.bytes_captured() == 2000
    assert cap.throughput_bps() == pytest.approx(16000)


def test_max_records_cap(sim):
    cap = PacketCapture(sim, max_records=2)
    for i in range(5):
        cap.record(_pkt(seq=i))
    assert len(cap) == 2
    assert cap.dropped_records == 3


def test_dump_renders(sim):
    cap = PacketCapture(sim, name="t")
    cap.record(_pkt())
    text = cap.dump()
    assert "t" in text and "seq=0" in text


def test_ring_keeps_latest_records(sim):
    cap = PacketCapture(sim, max_records=2)
    for i in range(5):
        cap.record(_pkt(seq=i * 100))
    # Drop-oldest ring: the survivors are the most recent packets.
    assert [rec.packet.tcp.seq for rec in cap.records] == [300, 400]
    assert cap.records_dropped == 3
    # Legacy alias still reads the same counter.
    assert cap.dropped_records == cap.records_dropped


def test_dump_mentions_dropped(sim):
    cap = PacketCapture(sim, name="ring", max_records=1)
    cap.record(_pkt())
    cap.record(_pkt(seq=100))
    assert "1 older dropped" in cap.dump()


def test_capture_to_json_validates(sim):
    import json

    from repro.obs.__main__ import check_document

    cap = PacketCapture(sim, name="exp", max_records=2)
    sim.schedule(1e-3, cap.record, _pkt(seq=0))
    sim.schedule(2e-3, cap.record, _pkt(seq=100, flags=TcpFlags.ACK | TcpFlags.PSH))
    sim.run()
    doc = cap.to_json()
    assert doc["capture"] == "exp"
    assert doc["records_dropped"] == 0
    assert doc["records"][0]["time"] == pytest.approx(1e-3)
    assert doc["records"][1]["seq"] == 100
    assert "PSH" in doc["records"][1]["flags"]
    assert check_document(doc) == ("capture", [])
    assert check_document(json.loads(json.dumps(doc))) == ("capture", [])
