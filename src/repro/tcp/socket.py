"""A minimal socket facade over :class:`~repro.tcp.connection.TcpConnection`.

Used by client machines and by tests.  The receive host under test has its
own costed socket layer in :mod:`repro.host.kernel` (copy-to-user and
syscall cycles must be charged there).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.tcp.connection import TcpConnection
from repro.tcp.source import ByteSource


class TcpSocket:
    """Application endpoint: buffers received data, surfaces callbacks.

    An application either sets ``on_data_cb``/``on_established_cb`` or, to
    be one object with its connection's socket, subclasses this and
    overrides ``on_data``/``on_established`` (``ClientHost.connect(app=)``
    builds the subclass).
    """

    __slots__ = (
        "conn", "received", "bytes_received", "established", "remote_closed",
        "closed", "on_data_cb", "on_established_cb",
    )

    def __init__(self, conn: TcpConnection):
        self.conn = conn
        conn.app = self
        #: (payload, length) per delivery; None until the first one.
        self.received: Optional[List[Tuple[Optional[bytes], int]]] = None
        self.bytes_received = 0
        self.established = False
        self.remote_closed = False
        self.closed = False
        self.on_data_cb: Optional[Callable[["TcpSocket", Optional[bytes], int], None]] = None
        self.on_established_cb: Optional[Callable[["TcpSocket"], None]] = None

    # ---- outbound ----
    def send(self, data: bytes) -> None:
        """Write bytes; lazily attaches a ByteSource."""
        if self.conn.source is None:
            self.conn.attach_source(ByteSource())
        self.conn.source.write(data)
        self.conn.app_wrote()

    def close(self) -> None:
        self.conn.close()

    # ---- inbound (connection callbacks) ----
    def on_established(self, conn: TcpConnection) -> None:
        self.established = True
        if self.on_established_cb is not None:
            self.on_established_cb(self)

    def on_data(self, conn: TcpConnection, payload: Optional[bytes], length: int) -> None:
        received = self.received
        if received is None:
            self.received = [(payload, length)]
        else:
            received.append((payload, length))
        self.bytes_received += length
        conn.mark_read(length)  # the app consumes immediately (netperf-style)
        if self.on_data_cb is not None:
            self.on_data_cb(self, payload, length)

    def on_remote_close(self, conn: TcpConnection) -> None:
        self.remote_closed = True

    def on_closed(self, conn: TcpConnection) -> None:
        self.closed = True

    def payload_bytes(self) -> bytes:
        """Concatenate all received payload (requires materialized payloads)."""
        parts = []
        for payload, _length in self.received or ():
            if payload is None:
                raise ValueError("socket received length-only data")
            parts.append(payload)
        return b"".join(parts)
