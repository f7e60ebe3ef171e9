"""IPv4 header with real checksum handling.

Receive Aggregation (paper §3.1) refuses to aggregate packets that carry IP
options or are fragments, and it *verifies the IP checksum* of every network
packet before using it for aggregation, then recomputes the checksum of the
rewritten aggregated header (§3.2).  Both operations are implemented for real
here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.net.addresses import ip_to_str
from repro.net.checksum import internet_checksum

IP_HEADER_LEN = 20
IPPROTO_TCP = 6

#: "More fragments" flag and fragment-offset mask in the frag field.
IP_MF = 0x2000
IP_DF = 0x4000
IP_OFFSET_MASK = 0x1FFF

_IP_STRUCT = struct.Struct("!BBHHHBBHII")


@dataclass
class IPv4Header:
    """An IPv4 header.  ``options`` is raw option bytes (normally empty)."""

    version: int = 4
    ihl: int = 5
    tos: int = 0
    total_length: int = IP_HEADER_LEN
    ident: int = 0
    frag: int = IP_DF
    ttl: int = 64
    proto: int = IPPROTO_TCP
    checksum: int = 0
    src_ip: int = 0
    dst_ip: int = 0
    options: bytes = b""
    #: True while the stored ``checksum`` has not been materialized yet.
    #: Length-only senders defer the (real) checksum computation; the header
    #: is valid by construction until something serializes or rewrites it.
    checksum_deferred: bool = field(default=False, compare=False, repr=False)

    @property
    def header_len(self) -> int:
        return self.ihl * 4

    @property
    def has_options(self) -> bool:
        return self.ihl > 5 or bool(self.options)

    @property
    def is_fragment(self) -> bool:
        """True for any packet that is part of an IP-fragmented datagram."""
        return bool(self.frag & IP_MF) or bool(self.frag & IP_OFFSET_MASK)

    # ------------------------------------------------------------------
    def pack(self, fill_checksum: bool = True) -> bytes:
        """Serialize the header; optionally compute and embed the checksum."""
        if self.checksum_deferred and not fill_checksum:
            self.refresh_checksum()
        ihl = 5 + (len(self.options) + 3) // 4
        options = self.options + b"\x00" * (ihl * 4 - IP_HEADER_LEN - len(self.options))
        head = _IP_STRUCT.pack(
            (self.version << 4) | ihl,
            self.tos,
            self.total_length,
            self.ident,
            self.frag,
            self.ttl,
            self.proto,
            0 if fill_checksum else self.checksum,
            self.src_ip,
            self.dst_ip,
        )
        data = head + options
        if fill_checksum:
            csum = internet_checksum(data)
            data = data[:10] + struct.pack("!H", csum) + data[12:]
        return data

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < IP_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (vihl, tos, total_length, ident, frag, ttl, proto, csum, src, dst) = _IP_STRUCT.unpack_from(data)
        ihl = vihl & 0x0F
        if ihl < 5:
            raise ValueError(f"invalid IHL {ihl}")
        options = bytes(data[IP_HEADER_LEN : ihl * 4])
        return cls(
            version=vihl >> 4,
            ihl=ihl,
            tos=tos,
            total_length=total_length,
            ident=ident,
            frag=frag,
            ttl=ttl,
            proto=proto,
            checksum=csum,
            src_ip=src,
            dst_ip=dst,
            options=options,
        )

    def compute_checksum(self) -> int:
        """Checksum of this header as it would appear on the wire."""
        packed = self.pack(fill_checksum=True)
        return struct.unpack_from("!H", packed, 10)[0]

    def refresh_checksum(self) -> None:
        """Recompute and store the header checksum (after a rewrite)."""
        self.checksum_deferred = False
        self.checksum = self.compute_checksum()

    def defer_checksum(self) -> None:
        """Mark the checksum as lazily valid (length-only fast path).

        The header is treated as carrying the checksum the sender would have
        computed; :meth:`checksum_ok` accepts it and serialization
        materializes it on demand.  Callers that *rewrite* header fields must
        still call :meth:`refresh_checksum` afterwards, exactly as before.
        """
        self.checksum_deferred = True

    def checksum_ok(self) -> bool:
        """Verify the stored checksum against the header contents.

        A deferred checksum is valid by construction — it stands for the
        value the sender would have computed over these exact fields.
        """
        if self.checksum_deferred:
            return True
        return self.checksum == self.compute_checksum()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IPv4({ip_to_str(self.src_ip)} -> {ip_to_str(self.dst_ip)},"
            f" len={self.total_length}, proto={self.proto})"
        )


def _checksum_get(self: IPv4Header) -> int:
    return self._checksum_value


def _checksum_set(self: IPv4Header, value: int) -> None:
    # An explicit store is a statement about the wire value (including tests
    # that corrupt it), so it always ends any deferral.
    self._checksum_value = value
    self.checksum_deferred = False


# ``checksum`` must stay an ordinary dataclass field for construction order
# and signature, but assignments need to clear ``checksum_deferred`` — so the
# attribute is swapped for a property after the dataclass is built.
IPv4Header.checksum = property(_checksum_get, _checksum_set)
