"""The network packet object passed through the simulation.

A :class:`Packet` is one on-the-wire TCP/IP frame.  It carries real header
objects (Ethernet, IPv4, TCP) and either real payload bytes (correctness
tests) or just a payload length (throughput simulations, where copying
megabytes through Python would model nothing).

Aggregated "host" packets are *not* Packets — they are
:class:`~repro.buffers.skbuff.SkBuff` instances chaining several Packets as
fragments, mirroring how Linux chains page fragments onto one sk_buff.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.checksum import checksum_update_u32
from repro.net.ethernet import ETH_HEADER_LEN, ETH_P_IP, EthernetHeader
from repro.net.flow import FlowKey
from repro.net.ip import IP_HEADER_LEN, IPPROTO_TCP, IPv4Header
from repro.net.tcp_header import (
    TCP_BASE_HEADER_LEN,
    TCP_TIMESTAMP_OPTION_LEN,
    TcpFlags,
    TcpHeader,
    TcpOptions,
)

#: Raw flag bits, for hot-path tests without enum-operator overhead.
_FLAGS_ACK = int(TcpFlags.ACK)
_FLAGS_SYN_FIN_RST = int(TcpFlags.SYN | TcpFlags.FIN | TcpFlags.RST)


class Packet:
    """One TCP/IPv4/Ethernet frame."""

    __slots__ = (
        "eth",
        "ip",
        "tcp",
        "payload",
        "payload_len",
        "csum_verified",
        "corrupted",
        "rx_time",
        "created_time",
        "lro_segs",
        "mem_token",
        "_wire_len",
        "_flow_key",
        "_slab_free",
    )

    def __init__(
        self,
        ip: IPv4Header,
        tcp: TcpHeader,
        payload: Optional[bytes] = None,
        payload_len: Optional[int] = None,
        eth: Optional[EthernetHeader] = None,
    ):
        self.eth = eth if eth is not None else EthernetHeader()
        self.ip = ip
        self.tcp = tcp
        self.payload = payload
        if payload is not None:
            if payload_len is not None and payload_len != len(payload):
                raise ValueError("payload_len disagrees with payload bytes")
            self.payload_len = len(payload)
        else:
            self.payload_len = payload_len or 0
        #: Set by the NIC when receive checksum offload validated the TCP checksum.
        self.csum_verified = False
        #: Set by an impaired link: the frame was damaged in flight and any
        #: checksum verification (hardware or software) must fail it.
        self.corrupted = False
        #: Stamped by the NIC at DMA completion.
        self.rx_time: Optional[float] = None
        #: Stamped by the sender, for latency accounting.
        self.created_time: Optional[float] = None
        #: Number of wire packets this packet stands for (hardware LRO > 1).
        self.lro_segs = 1
        #: DDIO placement token ``(node, id)`` set by the memory hierarchy
        #: at DMA time; None when the hierarchy is off (the default).
        self.mem_token = None
        #: Lazily cached geometry/flow identity (see ``wire_len``/``flow_key``).
        self._wire_len: Optional[int] = None
        self._flow_key = None
        #: True while parked on a :class:`~repro.buffers.slab.PacketSlab`
        #: freelist — any path still holding the packet then is a bug the
        #: sanitizer's reuse-after-free audit catches.
        self._slab_free = False

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def ip_len(self) -> int:
        """Bytes from the start of the IP header to the end of payload."""
        return self.ip.header_len + self.tcp.header_len + self.payload_len

    @property
    def wire_len(self) -> int:
        """MAC-frame length (without preamble/FCS/IFG, which the link adds).

        Cached on first use.  The write-through mutators below that change
        the geometry clear the cache themselves, and :meth:`copy` carries
        it over to the clone.
        """
        wl = self._wire_len
        if wl is None:
            wl = self._wire_len = ETH_HEADER_LEN + self.ip_len
        return wl

    @property
    def flow_key(self) -> FlowKey:
        """The packet's 4-tuple flow key, computed once and cached."""
        fk = self._flow_key
        if fk is None:
            fk = self._flow_key = FlowKey(
                self.ip.src_ip, self.tcp.src_port, self.ip.dst_ip, self.tcp.dst_port
            )
        return fk

    # ------------------------------------------------------------------
    # write-through mutation API
    #
    # Once a packet has been handed to the wire/receive path, its header
    # fields may only change through these methods (enforced by the
    # ``packet-mutation`` simlint rule): they keep the derived state —
    # cached geometry, IP total length, checksums — consistent with the
    # mutation, which ad-hoc field stores silently do not.
    # ------------------------------------------------------------------
    def absorb_segment(
        self,
        added_payload_len: int,
        ack: int,
        window: int,
        timestamp=None,
    ) -> None:
        """Coalesce one in-sequence segment into this (head) packet.

        Used by hardware LRO: the head grows by the merged segment's payload
        and takes over its cumulative ACK / window / timestamp (the newest
        values win, as when the segments are processed individually).
        Lengths and checksums are finalized later via
        :meth:`refresh_lengths`.
        """
        self.payload_len += added_payload_len
        tcp = self.tcp
        tcp.ack = ack
        tcp.window = window
        if timestamp is not None:
            tcp.options.timestamp = timestamp
        self._wire_len = None

    def set_joined_payload(self, data: bytes) -> None:
        """Install the concatenated payload bytes of a coalesced packet.

        ``payload_len`` must already account for every merged fragment
        (grown via :meth:`absorb_segment`).
        """
        if len(data) != self.payload_len:
            raise ValueError(
                f"joined payload is {len(data)} bytes; header says {self.payload_len}"
            )
        self.payload = data

    def refresh_lengths(self, total_payload_len: Optional[int] = None) -> None:
        """Recompute ``ip.total_length`` (and the IP checksum) after payload
        geometry changed.

        ``total_payload_len`` overrides the head's own ``payload_len`` for
        aggregated host packets whose payload lives in chained fragments.
        """
        payload_len = self.payload_len if total_payload_len is None else total_payload_len
        ip = self.ip
        ip.total_length = ip.header_len + self.tcp.header_len + payload_len
        ip.refresh_checksum()
        self._wire_len = None

    def finalize_aggregate_header(self, total_payload_len: int, ack: int, window: int, timestamp=None) -> None:
        """§3.2 header rewrite for a software-aggregated host packet.

        The head packet takes the last fragment's cumulative ACK, window and
        timestamp, and its IP length grows to cover the whole aggregate; the
        IP checksum is recomputed for real (the TCP checksum is not — the
        packet is marked hardware-verified instead).
        """
        tcp = self.tcp
        tcp.ack = ack
        tcp.window = window
        if timestamp is not None:
            tcp.options.timestamp = timestamp
        self.refresh_lengths(total_payload_len)

    def fill_checksums(self) -> None:
        """Materialize real IP and TCP checksums in the headers.

        Used when a packet becomes a *template* whose checksum will later be
        patched incrementally (RFC 1624) rather than recomputed.
        """
        payload = self.payload if self.payload is not None else b""
        self.tcp.checksum = self.tcp.compute_checksum(self.ip.src_ip, self.ip.dst_ip, payload)
        self.ip.refresh_checksum()

    def rewrite_ack_incremental(self, new_ack: int) -> None:
        """Rewrite the ACK-number field, fixing the TCP checksum incrementally.

        RFC 1624 eqn. 3 applied to the 32-bit ACK field — the driver-side
        template-ACK expansion (§4.2).  The existing checksum must be real
        (see :meth:`fill_checksums`).
        """
        tcp = self.tcp
        if new_ack == tcp.ack:
            return
        tcp.checksum = checksum_update_u32(tcp.checksum, tcp.ack, new_ack)
        tcp.ack = new_ack & 0xFFFFFFFF

    def tso_slice(self, offset: int, length: int) -> "Packet":
        """Build one MSS-sized wire segment of this oversized send (TSO).

        The slice shares immutable header values with the parent but owns
        its headers (drivers hand each slice to the wire independently).
        """
        seg = self.copy()
        seg.tcp.seq = (self.tcp.seq + offset) & 0xFFFFFFFF
        seg.payload = (
            self.payload[offset : offset + length] if self.payload is not None else None
        )
        seg.payload_len = length
        total = seg.ip_len
        seg.ip.total_length = total
        seg._wire_len = ETH_HEADER_LEN + total
        if seg.payload is None:
            # Length-only mode: hardware-split headers are valid by
            # construction; materializing the checksum per segment is
            # the single hottest arithmetic in a TSO run.
            seg.ip.defer_checksum()
        else:
            seg.ip.refresh_checksum()
        return seg

    @property
    def end_seq(self) -> int:
        """Sequence number one past the last payload byte (mod 2**32)."""
        return (self.tcp.seq + self.payload_len) & 0xFFFFFFFF

    @property
    def is_pure_ack(self) -> bool:
        """A zero-length segment with ACK set and no SYN/FIN/RST."""
        if self.payload_len != 0:
            return False
        flags = int(self.tcp.flags)
        return bool(flags & _FLAGS_ACK) and not (flags & _FLAGS_SYN_FIN_RST)

    # ------------------------------------------------------------------
    # serialization (used by correctness tests and the template-ACK driver)
    # ------------------------------------------------------------------
    def to_bytes(self, fill_checksums: bool = True) -> bytes:
        """Serialize the full frame.  Requires real payload bytes (or empty)."""
        payload = self.payload if self.payload is not None else b"\x00" * self.payload_len
        self.ip.total_length = self.ip.header_len + self.tcp.header_len + len(payload)
        if fill_checksums:
            self.ip.refresh_checksum()
            self.tcp.checksum = self.tcp.compute_checksum(self.ip.src_ip, self.ip.dst_ip, payload)
        return self.eth.pack() + self.ip.pack(fill_checksum=fill_checksums) + self.tcp.pack() + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        eth = EthernetHeader.unpack(data)
        if eth.ethertype != ETH_P_IP:
            raise ValueError(f"not an IPv4 frame (ethertype 0x{eth.ethertype:04x})")
        ip = IPv4Header.unpack(data[ETH_HEADER_LEN:])
        if ip.proto != IPPROTO_TCP:
            raise ValueError(f"not a TCP packet (proto {ip.proto})")
        tcp_start = ETH_HEADER_LEN + ip.header_len
        tcp = TcpHeader.unpack(data[tcp_start:])
        payload_start = tcp_start + tcp.header_len
        payload_end = ETH_HEADER_LEN + ip.total_length
        payload = bytes(data[payload_start:payload_end])
        return cls(ip=ip, tcp=tcp, payload=payload, eth=eth)

    def copy(self, slab=None) -> "Packet":
        """An independent clone of this frame.

        The clone owns its IP header, TCP header, options block and SACK
        list, which receive paths rewrite in place (ACK, window,
        ``options.timestamp``).  It shares the MAC header, which nothing
        mutates, and the cached geometry and flow identity, which equal
        the original's.

        With a :class:`~repro.buffers.slab.PacketSlab` the clone is a dead
        packet from its freelist, re-stamped in place: its header objects,
        options block and SACK list are cleared and refilled from this
        frame, so a clone allocates nothing.  Without one, or when the
        freelist is empty, those objects are built fresh.
        """
        clone = slab.acquire() if slab is not None else None
        if clone is None:
            clone = Packet.__new__(Packet)
            ip = clone.ip = IPv4Header.__new__(IPv4Header)
            tcp = clone.tcp = TcpHeader.__new__(TcpHeader)
            options = TcpOptions.__new__(TcpOptions)
            sack_blocks = []
        else:
            ip = clone.ip
            ip.__dict__.clear()
            tcp = clone.tcp
            options = tcp.options
            sack_blocks = options.sack_blocks
            tcp.__dict__.clear()
            options.__dict__.clear()
            sack_blocks.clear()
        src_options = self.tcp.options
        ip.__dict__.update(self.ip.__dict__)
        tcp.__dict__.update(self.tcp.__dict__)
        options.__dict__.update(src_options.__dict__)
        sack_blocks.extend(src_options.sack_blocks)
        options.sack_blocks = sack_blocks
        tcp.options = options
        clone.eth = self.eth
        clone.payload = self.payload
        clone.payload_len = self.payload_len
        clone.csum_verified = self.csum_verified
        clone.corrupted = self.corrupted
        clone.rx_time = self.rx_time
        clone.created_time = self.created_time
        clone.lro_segs = self.lro_segs
        clone.mem_token = None
        clone._wire_len = self._wire_len
        clone._flow_key = self._flow_key
        clone._slab_free = False
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Packet({self.tcp!r}, len={self.payload_len})"


def make_data_segment(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    payload_len: int = 0,
    payload: Optional[bytes] = None,
    window: int = 65535,
    timestamp=None,
    flags: TcpFlags = TcpFlags.ACK,
) -> Packet:
    """Convenience constructor for tests and workload generators."""
    options = TcpOptions(timestamp=timestamp)
    tcp = TcpHeader(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq & 0xFFFFFFFF,
        ack=ack & 0xFFFFFFFF,
        flags=flags,
        window=window,
        options=options,
    )
    if payload is not None:
        payload_len = len(payload)
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip)
    pkt = Packet(ip=ip, tcp=tcp, payload=payload, payload_len=payload_len)
    pkt.ip.total_length = pkt.ip_len
    if payload is None:
        # Length-only throughput mode: defer the (real) checksum arithmetic;
        # the header is valid by construction until serialized or rewritten.
        pkt.ip.defer_checksum()
    else:
        pkt.ip.refresh_checksum()
    return pkt


def _header_defaults():
    ip = IPv4Header()
    ip.defer_checksum()
    return dict(ip.__dict__), dict(TcpHeader().__dict__)


#: Header field defaults every template packet starts from, addresses and
#: ports zero until :meth:`PacketTemplate.make` stamps them.  Built once
#: and only ever read: ``make`` copies them into each packet's headers.
_IP_DEFAULTS, _TCP_DEFAULTS = _header_defaults()
#: The MAC header is never mutated in the simulation, so every template
#: packet shares this one (and :meth:`Packet.copy` shares it onward).
_TEMPLATE_ETH = EthernetHeader()


class PacketTemplate:
    """Pre-built header template for ACK-clocked senders (paper §4.2 spirit).

    A TCP endpoint emits thousands of near-identical frames per flow: same
    addresses, ports, and IP defaults, differing only in seq/ack/flags/
    window/options.  Building each one through the dataclass constructors
    re-derives all of that per packet.  :meth:`make` instead copies the
    header defaults every template shares and stamps this flow's addresses
    and ports plus the variable fields.  A template holds nothing but its
    flow key, normally the sending connection's own ``key``.

    Only valid for length-only packets (``payload is None``) — byte-accurate
    senders go through the ordinary constructors.
    """

    __slots__ = ("_flow_key", "slab")

    def __init__(self, flow_key: FlowKey):
        self._flow_key = flow_key
        #: Optional :class:`~repro.buffers.slab.PacketSlab` to recycle dead
        #: packets from.  Attached by the rig (kernel/client) per connection.
        self.slab = None

    def make(
        self,
        seq: int,
        ack: int,
        flags: TcpFlags,
        window: int,
        payload_len: int = 0,
        options: Optional[TcpOptions] = None,
        timestamp: Optional[Tuple[int, int]] = None,
    ) -> Packet:
        """Stamp one length-only packet of this flow.

        ``options`` is its TCP options block, which the packet then owns
        (a recycled packet re-stamps the block it owns, so no two packets
        may be given the same one).  Without one the packet gets a
        timestamp-only block carrying ``timestamp`` (an empty block when
        that is None too): the layout of every ACK-clocked data segment
        and ACK, built here so those packets cost one call each.
        """
        slab = self.slab
        pkt = slab.acquire() if slab is not None else None
        if pkt is None:
            ip = IPv4Header.__new__(IPv4Header)
            tcp = TcpHeader.__new__(TcpHeader)
            pkt = Packet.__new__(Packet)
            block = None
        else:
            # Recycled packet: reuse its header objects and options block,
            # re-initializing every field from the defaults (clear first —
            # the previous life may have set fields the defaults lack).
            ip = pkt.ip
            ip.__dict__.clear()
            tcp = pkt.tcp
            block = tcp.options
            tcp.__dict__.clear()
        ip.__dict__.update(_IP_DEFAULTS)
        tcp.__dict__.update(_TCP_DEFAULTS)
        flow_key = self._flow_key
        ip.src_ip, tcp.src_port, ip.dst_ip, tcp.dst_port = flow_key
        tcp.seq = seq & 0xFFFFFFFF
        tcp.ack = ack & 0xFFFFFFFF
        tcp.flags = flags
        tcp.window = window
        if options is None:
            if block is None:
                options = TcpOptions.__new__(TcpOptions)
                options.sack_blocks = []
            else:
                options = block
                options.sack_blocks.clear()
            options.mss = None
            options.window_scale = None
            options.sack_permitted = False
            options.timestamp = timestamp
            # encoded_len() of a timestamp-only block.
            options_len = 0 if timestamp is None else TCP_TIMESTAMP_OPTION_LEN
        else:
            options_len = options.encoded_len()
        tcp.options = options
        # Template headers are always option-less IP (ihl=5), base TCP.
        total = IP_HEADER_LEN + TCP_BASE_HEADER_LEN + options_len + payload_len
        ip.total_length = total
        pkt.eth = _TEMPLATE_ETH
        pkt.ip = ip
        pkt.tcp = tcp
        pkt.payload = None
        pkt.payload_len = payload_len
        pkt.csum_verified = False
        pkt.corrupted = False
        pkt.rx_time = None
        pkt.created_time = None
        pkt.lro_segs = 1
        pkt.mem_token = None
        pkt._wire_len = ETH_HEADER_LEN + total
        pkt._flow_key = flow_key
        pkt._slab_free = False
        return pkt
