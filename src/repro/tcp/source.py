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

from functools import lru_cache
from typing import Optional


class ByteSource:
    """A finite send buffer fed by explicit ``write`` calls."""

    def __init__(self) -> None:
        self._chunks: bytearray = bytearray()
        #: Absolute stream offset of the first byte still buffered.
        self._base = 0
        self.closed = False

    def write(self, data: bytes) -> None:
        if self.closed:
            raise RuntimeError("write after close")
        self._chunks.extend(data)

    def close(self) -> None:
        self.closed = True

    def available(self, offset: int) -> int:
        """Bytes available at absolute stream ``offset`` onward."""
        return max(0, self._base + len(self._chunks) - offset)

    def read(self, offset: int, n: int) -> bytes:
        """Bytes at [offset, offset+n); the range must be buffered."""
        start = offset - self._base
        if start < 0:
            raise ValueError("offset before retained data")
        data = bytes(self._chunks[start : start + n])
        if len(data) < n:
            raise ValueError("read past buffered data")
        return data

    def release(self, offset: int) -> None:
        """Drop buffered bytes below absolute ``offset`` (they were ACKed)."""
        drop = offset - self._base
        if drop > 0:
            del self._chunks[:drop]
            self._base = offset


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
