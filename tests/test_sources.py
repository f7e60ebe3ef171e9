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


def test_byte_source_shares_bytes_and_copies_mutable_writes():
    """A ``bytes`` write is buffered as the caller's object; a ``bytearray``
    or ``memoryview`` is copied, so mutating it later changes nothing."""
    src = ByteSource()
    response = b"r" * 2048
    src.write(response)
    src.write(response)
    assert [chunk for _end, chunk in src._entries] == [response, response]
    assert all(chunk is response for _end, chunk in src._entries)
    scratch = bytearray(b"abc")
    backing = bytearray(b"xyz")
    src.write(scratch)
    src.write(memoryview(backing))
    scratch[:] = b"ABC"
    backing[:] = b"XYZ"
    assert src.read(4096, 6) == b"abcxyz"
    assert src.read(2040, 16) == b"r" * 16  # across the two responses


_WRITE = st.tuples(st.just("write"), st.binary(max_size=24), st.sampled_from(["bytes", "bytearray"]))
_READ = st.tuples(st.just("read"), st.integers(-8, 120), st.integers(0, 60))
_RELEASE = st.tuples(st.just("release"), st.integers(-8, 120))


@given(st.lists(st.one_of(_WRITE, _READ, _RELEASE), max_size=40))
def test_byte_source_matches_a_bytearray_model(ops):
    """Any sequence of writes, reads (within, across and past chunk
    boundaries, and below the released offset) and releases behaves as one
    flat ``bytearray`` with a base offset, the buffer this class replaced."""
    src = ByteSource()
    model = bytearray()
    base = 0
    for op in ops:
        if op[0] == "write":
            data = op[1] if op[2] == "bytes" else bytearray(op[1])
            src.write(data)
            model.extend(data)
            if isinstance(data, bytearray) and data:
                data[0] ^= 0xFF  # the caller reuses its buffer
            elif data:
                assert src._entries[-1][1] is data  # held, not copied
        elif op[0] == "read":
            offset, n = base + op[1], op[2]
            if offset < base:
                with pytest.raises(ValueError, match="before retained"):
                    src.read(offset, n)
            elif n and offset + n > base + len(model):
                with pytest.raises(ValueError, match="past buffered"):
                    src.read(offset, n)
            else:
                assert src.read(offset, n) == bytes(model[offset - base:offset - base + n])
        else:
            offset = min(base + op[1], base + len(model))
            src.release(offset)
            if offset > base:
                del model[:offset - base]
                base = offset
        assert src.available(base) == len(model)
        assert src.available(base + len(model) + 1) == 0


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
