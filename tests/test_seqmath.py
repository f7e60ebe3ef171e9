"""Sequence-number arithmetic, including wraparound properties."""

from hypothesis import given
from hypothesis import strategies as st

from repro.tcp.seqmath import (
    seq_add,
    seq_between,
    seq_diff,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
)

seqs = st.integers(min_value=0, max_value=0xFFFFFFFF)
small = st.integers(min_value=0, max_value=(1 << 30))


def test_basic_ordering():
    assert seq_lt(1, 2)
    assert seq_gt(2, 1)
    assert seq_le(2, 2)
    assert seq_ge(2, 2)


def test_wraparound_ordering():
    near_top = 0xFFFFFFF0
    wrapped = seq_add(near_top, 0x100)
    assert wrapped == 0xF0
    assert seq_lt(near_top, wrapped)
    assert seq_gt(wrapped, near_top)


def test_diff_signs():
    assert seq_diff(100, 50) == 50
    assert seq_diff(50, 100) == -50
    assert seq_diff(0x10, 0xFFFFFFF0) == 0x20  # across the wrap


def test_between_across_wrap():
    assert seq_between(5, 0xFFFFFFF0, 0x10)
    assert not seq_between(0x20, 0xFFFFFFF0, 0x10)


@given(seqs, small)
def test_add_then_diff_recovers_offset(base, offset):
    assert seq_diff(seq_add(base, offset), base) == offset


@given(seqs, st.integers(min_value=1, max_value=(1 << 30)))
def test_strict_order_antisymmetry(base, offset):
    later = seq_add(base, offset)
    assert seq_lt(base, later)
    assert not seq_lt(later, base)
    assert seq_gt(later, base)


@given(seqs)
def test_reflexivity(a):
    assert seq_le(a, a)
    assert seq_ge(a, a)
    assert not seq_lt(a, a)
    assert seq_diff(a, a) == 0


@given(seqs, small, small)
def test_transitivity_within_window(base, d1, d2):
    b = seq_add(base, d1 // 2)
    c = seq_add(b, d2 // 2)
    if seq_le(base, b) and seq_le(b, c):
        assert seq_le(base, c) or seq_diff(c, base) < 0  # window overflow tolerated
