"""RFC 1071 checksum tests, including the incremental updates the
ACK-offload driver relies on."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import (
    _ones_complement_sum,
    checksum_add,
    checksum_update_u32,
    checksums_equivalent,
    internet_checksum,
    verify_checksum,
)


def _word_loop_sum(data: bytes) -> int:
    """RFC 1071's sum one 16-bit word at a time: the reference for the
    integer fold ``_ones_complement_sum`` computes."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def test_known_vector():
    # Classic example from RFC 1071 §3 (words 0001 f203 f4f5 f6f7).
    data = bytes.fromhex("0001f203f4f5f6f7")
    assert internet_checksum(data) == 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7) % 0xFFFF)


def test_zero_data():
    assert internet_checksum(b"\x00" * 8) == 0xFFFF


def test_odd_length_padded_with_zero():
    assert internet_checksum(b"\x12") == internet_checksum(b"\x12\x00")


def test_verify_checksum_roundtrip():
    payload = b"hello tcp checksum world"
    csum = internet_checksum(payload)
    full = payload + (b"\x00" if len(payload) % 2 else b"")
    # Embed the checksum as an extra word: sum must come out as all-ones.
    assert verify_checksum(full + struct.pack("!H", csum))


@given(st.binary(max_size=200))
def test_fold_matches_word_loop(data):
    assert _ones_complement_sum(data) == _word_loop_sum(data)


@pytest.mark.parametrize("data", [b"", b"\x00", b"\x00" * 44, b"\xff", b"\xff" * 44, b"\xff\xfe\x00\x01"])
def test_fold_matches_word_loop_at_zero_sums(data):
    """Both representations of zero: all-0x00 data sums to 0, while
    all-0xFF data and other nonzero multiples of 0xFFFF sum to 0xFFFF."""
    assert _ones_complement_sum(data) == _word_loop_sum(data)


@given(st.binary(min_size=0, max_size=200))
def test_checksum_in_range(data):
    assert 0 <= internet_checksum(data) <= 0xFFFF


@given(st.binary(min_size=2, max_size=100).filter(lambda b: len(b) % 2 == 0))
def test_data_plus_own_checksum_verifies(data):
    csum = internet_checksum(data)
    assert verify_checksum(data + struct.pack("!H", csum))


@given(
    st.binary(min_size=8, max_size=64).filter(lambda b: len(b) % 2 == 0),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=0xFFFF),
)
def test_incremental_word_update_matches_recompute(data, word_index, new_word):
    old = internet_checksum(data)
    pos = word_index * 2
    old_word = (data[pos] << 8) | data[pos + 1]
    updated = bytearray(data)
    updated[pos] = new_word >> 8
    updated[pos + 1] = new_word & 0xFF
    assert checksums_equivalent(checksum_add(old, old_word, new_word), internet_checksum(bytes(updated)))


@given(
    st.binary(min_size=12, max_size=60).filter(lambda b: len(b) % 2 == 0),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_incremental_u32_update_matches_recompute(data, new_value):
    """The exact operation the driver performs on a template ACK's ACK field."""
    old = internet_checksum(data)
    old_value = struct.unpack_from("!I", data, 4)[0]
    updated = bytearray(data)
    struct.pack_into("!I", updated, 4, new_value)
    assert checksums_equivalent(checksum_update_u32(old, old_value, new_value), internet_checksum(bytes(updated)))


def test_checksums_equivalent_predicate():
    assert checksums_equivalent(0x1234, 0x1234)
    assert checksums_equivalent(0x0000, 0xFFFF)
    assert checksums_equivalent(0xFFFF, 0x0000)
    assert not checksums_equivalent(0x0000, 0x0001)
    assert not checksums_equivalent(0x1234, 0x1235)


def test_update_u32_zero_representation_edge():
    """0x0000 and 0xFFFF both encode a zero one's-complement sum (RFC 1624
    §3 pitfall): incremental updates may land on either representation, and
    the equivalence predicate — not ``==`` — must be used to compare."""
    # A no-op update (old value == new value) must keep the checksum
    # *equivalent*, whichever representation comes back.
    for csum in (0x0000, 0xFFFF, 0x1234):
        for value in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
            assert checksums_equivalent(
                checksum_update_u32(csum, value, value), csum
            )


def test_update_u32_randomized_matches_recompute():
    """Randomized RFC 1624 property: incrementally patching a u32 anywhere
    in a buffer always agrees with a full recompute (fixed seed)."""
    import random

    rng = random.Random(0x5EED)
    for _ in range(200):
        n_words = rng.randrange(4, 33)
        data = bytearray(rng.randbytes(n_words * 2))
        pos = rng.randrange(0, len(data) - 3) & ~1  # 16-bit aligned u32
        old = internet_checksum(bytes(data))
        old_value = struct.unpack_from("!I", data, pos)[0]
        new_value = rng.getrandbits(32)
        struct.pack_into("!I", data, pos, new_value)
        expect = internet_checksum(bytes(data))
        got = checksum_update_u32(old, old_value, new_value)
        assert checksums_equivalent(got, expect), (
            f"pos={pos} old={old:#06x} {old_value:#010x}->{new_value:#010x}: "
            f"got {got:#06x}, recompute {expect:#06x}"
        )


def test_update_u32_chain_of_updates():
    """Chained incremental updates (the template-ACK expansion loop patches
    the same field once per ACK) stay equivalent to a recompute."""
    import random

    rng = random.Random(7)
    data = bytearray(rng.randbytes(40))
    csum = internet_checksum(bytes(data))
    for _ in range(50):
        old_value = struct.unpack_from("!I", data, 8)[0]
        new_value = rng.getrandbits(32)
        struct.pack_into("!I", data, 8, new_value)
        csum = checksum_update_u32(csum, old_value, new_value)
        assert checksums_equivalent(csum, internet_checksum(bytes(data)))
