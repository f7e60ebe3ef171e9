"""Send-side data sources.

A connection's send buffer is fed by a :class:`ByteSource` (explicit
application writes — used by the request/response workload and the
correctness tests) or an :class:`InfiniteSource` (a netperf-style endless
stream — used by the throughput workloads).

The infinite source can deterministically *materialize* the bytes for any
sequence range, so even bulk-stream tests can verify end-to-end payload
integrity: byte at absolute stream offset ``i`` is ``(i * 31 + seed) & 0xFF``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import List, Optional, Tuple


class ByteSource:
    """A finite send buffer fed by explicit ``write`` calls.

    The buffer shares the writer's bytes instead of copying them, the way
    ``MSG_ZEROCOPY`` pins the application's pages: a ``bytes`` write is
    held as the caller's object (it is immutable), and only a mutable
    ``bytearray`` or ``memoryview`` is copied, once.  An RPC server that
    sends one response object to every client buffers a reference per
    write, and a length-only connection never reads the bytes at all.
    """

    __slots__ = ("_entries", "_base", "closed")

    def __init__(self) -> None:
        #: ``(end, chunk)`` per written object still (partly) buffered,
        #: oldest first; ``end`` is the absolute stream offset just past it.
        self._entries: List[Tuple[int, bytes]] = []
        #: Absolute stream offset of the first byte still buffered.
        self._base = 0
        self.closed = False

    def write(self, data: bytes) -> None:
        if self.closed:
            raise RuntimeError("write after close")
        if not isinstance(data, bytes):
            data = bytes(data)
        if data:
            entries = self._entries
            end = entries[-1][0] if entries else self._base
            entries.append((end + len(data), data))

    def close(self) -> None:
        self.closed = True

    def available(self, offset: int) -> int:
        """Bytes available at absolute stream ``offset`` onward."""
        entries = self._entries
        return max(0, (entries[-1][0] if entries else self._base) - offset)

    def read(self, offset: int, n: int) -> bytes:
        """Bytes at [offset, offset+n); the range must be buffered.

        Costs the chunks the range touches, not the chunks buffered: the
        first one is found by bisection.
        """
        if offset < self._base:
            raise ValueError("offset before retained data")
        if n <= 0:
            return b""
        entries = self._entries
        if not entries or offset + n > entries[-1][0]:
            raise ValueError("read past buffered data")
        i = _first_ending_after(entries, offset)
        end, chunk = entries[i]
        lo = offset - (end - len(chunk))
        if offset + n <= end:
            return chunk[lo:lo + n]
        parts = [chunk[lo:]]
        need = n - len(parts[0])
        while need > 0:
            i += 1
            chunk = entries[i][1]
            parts.append(chunk[:need])
            need -= len(chunk)
        return b"".join(parts)

    def release(self, offset: int) -> None:
        """Drop buffered bytes below absolute ``offset`` (they were ACKed):
        every chunk that ends at or below it is let go."""
        if offset > self._base:
            del self._entries[:_first_ending_after(self._entries, offset)]
            self._base = offset


def _first_ending_after(entries: List[Tuple[int, bytes]], offset: int) -> int:
    """Index of the first ``(end, chunk)`` entry with ``end > offset``.

    The 1-tuple key sorts before every entry whose end equals it, so the
    bisection never compares chunks (ends are distinct: no chunk is empty).
    """
    return bisect_left(entries, (offset + 1,))


class InfiniteSource:
    """An endless deterministic byte stream.

    Parameters
    ----------
    materialize:
        When True, segments carry real payload bytes generated from the
        pattern; when False (throughput mode) they carry only a length.
    limit_bytes:
        Optional total size, after which the source reports no more data.
    """

    def __init__(self, materialize: bool = False, seed: int = 0, limit_bytes: Optional[int] = None):
        self.materialize = materialize
        self.seed = seed
        self.limit_bytes = limit_bytes
        self.closed = False

    def available(self, offset: int) -> int:
        if self.limit_bytes is None:
            return 1 << 30
        return max(0, self.limit_bytes - offset)

    def read(self, offset: int, n: int) -> Optional[bytes]:
        """Payload bytes for stream range [offset, offset+n), or None in
        length-only mode."""
        if not self.materialize:
            return None
        return self.pattern(offset, n, self.seed)

    def release(self, offset: int) -> None:
        """Nothing retained — the pattern regenerates any range."""

    @staticmethod
    def pattern(offset: int, n: int, seed: int = 0) -> bytes:
        """The deterministic byte pattern for stream offsets ``offset`` to
        ``offset + n``; also used by receivers to verify.  It repeats every
        256 bytes, so the range is sliced out of repeated copies of one
        period."""
        if n <= 0:
            return b""
        start = offset & 0xFF
        return (_pattern_period(seed & 0xFF) * ((start + n) // 256 + 1))[start:start + n]


@lru_cache(maxsize=256)
def _pattern_period(seed: int) -> bytes:
    """Stream offsets 0-255 of the pattern: ``(i * 31 + seed) & 0xFF``."""
    return bytes((i * 31 + seed) & 0xFF for i in range(256))
