"""Modulo-2**32 TCP sequence-number arithmetic (RFC 793 / RFC 1982 style).

All comparisons are window-relative: ``seq_lt(a, b)`` means "a is before b"
assuming the two are within 2**31 of each other, which TCP guarantees for
live data.  Property-based tests exercise wraparound explicitly.
"""

from __future__ import annotations

MOD = 1 << 32
HALF = 1 << 31


def seq_add(a: int, n: int) -> int:
    """``a + n`` modulo 2**32."""
    return (a + n) & 0xFFFFFFFF


def seq_diff(a: int, b: int) -> int:
    """Signed distance from ``b`` to ``a`` (positive when a is after b)."""
    d = (a - b) & 0xFFFFFFFF
    if d >= HALF:
        d -= MOD
    return d


def seq_lt(a: int, b: int) -> bool:
    """True when ``a`` precedes ``b`` in sequence space."""
    return seq_diff(a, b) < 0


def seq_le(a: int, b: int) -> bool:
    return seq_diff(a, b) <= 0


def seq_gt(a: int, b: int) -> bool:
    return seq_diff(a, b) > 0


def seq_ge(a: int, b: int) -> bool:
    return seq_diff(a, b) >= 0


def seq_between(a: int, low: int, high: int) -> bool:
    """True when ``low <= a <= high`` in sequence space."""
    return seq_le(low, a) and seq_le(a, high)
