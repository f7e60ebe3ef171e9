"""Send-side data source tests."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcp.source import ByteSource, InfiniteSource


# ---------------------------------------------------------------- ByteSource
def test_byte_source_write_read():
    src = ByteSource()
    src.write(b"hello")
    src.write(b"world")
    assert src.available(0) == 10
    assert src.read(0, 5) == b"hello"
    assert src.read(5, 5) == b"world"
    assert src.read(2, 6) == b"llowor"


def test_byte_source_release_frees_prefix():
    src = ByteSource()
    src.write(b"abcdefgh")
    src.release(4)
    assert src.available(4) == 4
    assert src.read(4, 4) == b"efgh"
    with pytest.raises(ValueError):
        src.read(0, 2)  # released


def test_byte_source_read_past_end_rejected():
    src = ByteSource()
    src.write(b"abc")
    with pytest.raises(ValueError):
        src.read(0, 10)


def test_byte_source_write_after_close_rejected():
    src = ByteSource()
    src.close()
    with pytest.raises(RuntimeError):
        src.write(b"x")


def test_byte_source_available_beyond_buffer_is_zero():
    src = ByteSource()
    src.write(b"abc")
    assert src.available(5) == 0


# ---------------------------------------------------------------- InfiniteSource
def test_infinite_source_unbounded_availability():
    src = InfiniteSource()
    assert src.available(0) > 1 << 20
    assert src.available(10**9) > 1 << 20


def test_infinite_source_limit():
    src = InfiniteSource(limit_bytes=1000)
    assert src.available(0) == 1000
    assert src.available(990) == 10
    assert src.available(1000) == 0


def test_infinite_source_length_only_mode_returns_none():
    assert InfiniteSource(materialize=False).read(0, 100) is None


def test_infinite_source_pattern_is_deterministic_and_offset_based():
    src = InfiniteSource(materialize=True, seed=5)
    chunk = src.read(100, 50)
    assert chunk == InfiniteSource.pattern(100, 50, seed=5)
    # Reading [100,150) equals the tail of [0,150).
    assert src.read(0, 150)[100:] == chunk


def test_infinite_source_seeds_differ():
    assert InfiniteSource.pattern(0, 32, seed=1) != InfiniteSource.pattern(0, 32, seed=2)


def test_pattern_matches_its_per_byte_definition():
    """Byte at stream offset ``i`` is ``(i * 31 + seed) & 0xFF``."""
    rng = random.Random(20081)
    for _ in range(2000):
        offset = rng.randrange(1 << 40)
        n = rng.randrange(3000)
        seed = rng.randrange(1 << 16)
        expected = bytes((i * 31 + seed) & 0xFF for i in range(offset, offset + n))
        assert InfiniteSource.pattern(offset, n, seed) == expected, (offset, n, seed)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=500))
def test_pattern_concatenation_property(offset, n):
    """pattern(a..b) + pattern(b..c) == pattern(a..c) — retransmitted ranges
    are byte-identical to the originals."""
    half = n // 2
    whole = InfiniteSource.pattern(offset, n, seed=3)
    assert InfiniteSource.pattern(offset, half, 3) + InfiniteSource.pattern(offset + half, n - half, 3) == whole
