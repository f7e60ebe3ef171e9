"""RFC 1071 internet checksum.

The ones-complement sum used by IPv4 and TCP.  The incremental helpers
(:func:`checksum_add`) support the ACK-offload driver path, which rewrites the
ACK number in a template packet and fixes the checksum without touching the
rest of the header (RFC 1624 style incremental update).
"""

from __future__ import annotations


def _ones_complement_sum(data: bytes) -> int:
    """Fold ``data`` (16-bit big-endian words) into a 16-bit ones-complement sum.

    Read as one big-endian integer, ``data`` is its words weighted by powers
    of 2**16, and 2**16 is 1 modulo 0xFFFF, so the word sum (and its
    end-around-carry fold) is that integer modulo 0xFFFF.  The fold of a
    nonzero sum is never 0, so a remainder of 0 stands for 0xFFFF unless
    every word is zero.
    """
    if len(data) % 2:
        data = data + b"\x00"
    n = int.from_bytes(data, "big")
    total = n % 0xFFFF
    if total == 0 and n != 0:
        return 0xFFFF
    return total


def internet_checksum(data: bytes) -> int:
    """Compute the RFC 1071 checksum of ``data``.

    The returned value is the ones-complement of the ones-complement sum —
    the value that goes into the header checksum field.
    """
    return (~_ones_complement_sum(data)) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its embedded checksum field) sums to zero."""
    return _ones_complement_sum(data) == 0xFFFF


def checksums_equivalent(a: int, b: int) -> bool:
    """Equality modulo the ones-complement representation of zero.

    RFC 1624 §3: incremental updates can yield ``0x0000`` where a full
    recompute yields ``0xFFFF`` (or vice versa) — both encode zero in
    ones-complement arithmetic.  Any comparison between an incrementally
    maintained checksum and a recomputed one must use this predicate.
    """
    if a == b:
        return True
    return {a, b} == {0x0000, 0xFFFF}


def checksum_add(checksum: int, old_word: int, new_word: int) -> int:
    """Incrementally update ``checksum`` after a 16-bit word changed.

    Implements RFC 1624 eqn. 3: ``HC' = ~(~HC + ~m + m')``.  The result can
    differ from a full recompute in the representation of zero (see
    :func:`checksums_equivalent`).

    >>> import struct
    >>> data = bytearray(b"\\x12\\x34\\x56\\x78")
    >>> c = internet_checksum(bytes(data))
    >>> data[0:2] = b"\\xab\\xcd"
    >>> checksum_add(c, 0x1234, 0xabcd) == internet_checksum(bytes(data))
    True
    """
    total = (~checksum & 0xFFFF) + (~old_word & 0xFFFF) + new_word
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def checksum_update_u32(checksum: int, old_value: int, new_value: int) -> int:
    """Incrementally update ``checksum`` after a 32-bit field changed.

    Used when the driver rewrites the 32-bit ACK-number field of a template
    ACK packet.
    """
    checksum = checksum_add(checksum, (old_value >> 16) & 0xFFFF, (new_value >> 16) & 0xFFFF)
    checksum = checksum_add(checksum, old_value & 0xFFFF, new_value & 0xFFFF)
    return checksum
