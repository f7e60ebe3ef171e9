"""TCP header, flags, and options.

Aggregation eligibility (paper §3.1) depends on exactly which options a
segment carries: only the timestamp option is tolerated; anything else (SACK
blocks in particular) forces the packet to bypass aggregation.  The option
set is therefore modelled explicitly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntFlag
from typing import List, Optional, Tuple

from repro.net.checksum import internet_checksum

TCP_BASE_HEADER_LEN = 20
#: NOP + NOP + kind(8) len(10) tsval tsecr — the canonical Linux layout.
TCP_TIMESTAMP_OPTION_LEN = 12

_TCP_STRUCT = struct.Struct("!HHIIBBHHH")


class TcpFlags(IntFlag):
    """TCP header flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


@dataclass
class TcpOptions:
    """Parsed TCP options.

    Attributes
    ----------
    mss:
        Maximum segment size (SYN only).
    window_scale:
        Window-scale shift count (SYN only).
    sack_permitted:
        SACK-permitted flag (SYN only).
    timestamp:
        ``(tsval, tsecr)`` pair, or None.
    sack_blocks:
        List of ``(left_edge, right_edge)`` SACK blocks.
    """

    mss: Optional[int] = None
    window_scale: Optional[int] = None
    sack_permitted: bool = False
    timestamp: Optional[Tuple[int, int]] = None
    sack_blocks: List[Tuple[int, int]] = field(default_factory=list)

    def only_timestamp(self) -> bool:
        """True when the timestamp option is the only option present.

        This is the aggregation-eligibility test of paper §3.1.
        """
        return (
            self.mss is None
            and self.window_scale is None
            and not self.sack_permitted
            and not self.sack_blocks
        )

    def is_empty(self) -> bool:
        return self.only_timestamp() and self.timestamp is None

    def encoded_len(self) -> int:
        """Length in bytes of the packed options (padded to 4-byte multiple).

        Computed arithmetically — it must stay consistent with :meth:`pack`
        (the property test in ``tests/test_net_headers.py`` guards this) and
        is on the per-packet hot path via ``TcpHeader.header_len``.
        """
        n = 0
        if self.mss is not None:
            n += 4
        if self.window_scale is not None:
            n += 3
        if self.sack_permitted:
            n += 2
        if self.timestamp is not None:
            n += TCP_TIMESTAMP_OPTION_LEN
        if self.sack_blocks:
            n += 4 + 8 * len(self.sack_blocks)
        return (n + 3) & ~3

    def pack(self) -> bytes:
        out = bytearray()
        if self.mss is not None:
            out += struct.pack("!BBH", 2, 4, self.mss)
        if self.window_scale is not None:
            out += struct.pack("!BBB", 3, 3, self.window_scale)
        if self.sack_permitted:
            out += struct.pack("!BB", 4, 2)
        if self.timestamp is not None:
            out += struct.pack("!BBBBII", 1, 1, 8, 10, self.timestamp[0], self.timestamp[1])
        if self.sack_blocks:
            body = b"".join(struct.pack("!II", l, r) for l, r in self.sack_blocks)
            out += struct.pack("!BBBB", 1, 1, 5, 2 + len(body)) + body
        while len(out) % 4:
            out.append(0)  # end-of-options / pad
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "TcpOptions":
        opts = cls()
        i = 0
        while i < len(data):
            kind = data[i]
            if kind == 0:  # end of options
                break
            if kind == 1:  # NOP
                i += 1
                continue
            if i + 1 >= len(data):
                raise ValueError("truncated TCP option")
            length = data[i + 1]
            if length < 2 or i + length > len(data):
                raise ValueError("malformed TCP option length")
            body = data[i + 2 : i + length]
            if kind == 2 and length == 4:
                opts.mss = struct.unpack("!H", body)[0]
            elif kind == 3 and length == 3:
                opts.window_scale = body[0]
            elif kind == 4 and length == 2:
                opts.sack_permitted = True
            elif kind == 8 and length == 10:
                opts.timestamp = struct.unpack("!II", body)
            elif kind == 5:
                blocks = []
                for j in range(0, len(body), 8):
                    blocks.append(struct.unpack("!II", body[j : j + 8]))
                opts.sack_blocks = blocks
            i += length
        return opts


@dataclass
class TcpHeader:
    """A TCP header with parsed options."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: TcpFlags = TcpFlags.ACK
    window: int = 65535
    checksum: int = 0
    urgent: int = 0
    options: TcpOptions = field(default_factory=TcpOptions)

    @property
    def header_len(self) -> int:
        return TCP_BASE_HEADER_LEN + self.options.encoded_len()

    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        opt_bytes = self.options.pack()
        doff = (TCP_BASE_HEADER_LEN + len(opt_bytes)) // 4
        head = _TCP_STRUCT.pack(
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            doff << 4,
            int(self.flags),
            self.window,
            self.checksum,
            self.urgent,
        )
        return head + opt_bytes

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        if len(data) < TCP_BASE_HEADER_LEN:
            raise ValueError("truncated TCP header")
        (sport, dport, seq, ack, doff_raw, flags, window, csum, urgent) = _TCP_STRUCT.unpack_from(data)
        doff = (doff_raw >> 4) * 4
        if doff < TCP_BASE_HEADER_LEN or doff > len(data):
            raise ValueError(f"invalid TCP data offset {doff}")
        options = TcpOptions.unpack(bytes(data[TCP_BASE_HEADER_LEN:doff]))
        return cls(
            src_port=sport,
            dst_port=dport,
            seq=seq,
            ack=ack,
            flags=TcpFlags(flags),
            window=window,
            checksum=csum,
            urgent=urgent,
            options=options,
        )

    def compute_checksum(self, src_ip: int, dst_ip: int, payload: bytes) -> int:
        """TCP checksum over pseudo-header + header + payload."""
        segment_len = self.header_len + len(payload)
        pseudo = struct.pack("!IIBBH", src_ip, dst_ip, 0, 6, segment_len)
        saved, self.checksum = self.checksum, 0
        try:
            data = pseudo + self.pack() + payload
        finally:
            self.checksum = saved
        return internet_checksum(data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = "|".join(f.name for f in TcpFlags if f in self.flags) or "0"
        return (
            f"TCP({self.src_port} -> {self.dst_port}, seq={self.seq},"
            f" ack={self.ack}, {names}, win={self.window})"
        )
