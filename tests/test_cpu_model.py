"""Cache model, cost model, lock model, and profiler tests."""

import pytest

from repro.cpu.cache import CacheModel, PrefetchMode
from repro.cpu.categories import Category
from repro.cpu.costmodel import CostModel
from repro.cpu.locks import LockModel
from repro.cpu.profiler import Profiler


# ---------------------------------------------------------------- cache
def test_lines_rounding():
    cache = CacheModel(line_bytes=64)
    assert cache.lines(0) == 0
    assert cache.lines(1) == 1
    assert cache.lines(64) == 1
    assert cache.lines(65) == 2
    assert cache.lines(1448) == 23


def test_prefetch_modes_order_per_byte_cost():
    """The paper's §2.1 mechanism: more prefetching => cheaper sequential access."""
    cache = CacheModel()
    none = cache.sequential_copy_cycles(1448, PrefetchMode.NONE)
    partial = cache.sequential_copy_cycles(1448, PrefetchMode.PARTIAL)
    full = cache.sequential_copy_cycles(1448, PrefetchMode.FULL)
    assert none > partial > full
    assert none / full > 4  # the shift is dramatic, not marginal


def test_copy_scales_linearly_in_lines():
    cache = CacheModel()
    one = cache.sequential_copy_cycles(64, PrefetchMode.FULL)
    ten = cache.sequential_copy_cycles(640, PrefetchMode.FULL)
    assert ten == pytest.approx(10 * one)


def test_checksum_cheaper_than_copy_per_byte():
    cache = CacheModel()
    assert (
        cache.sequential_checksum_cycles(1448, PrefetchMode.FULL)
        < cache.sequential_copy_cycles(1448, PrefetchMode.FULL)
    )


# ---------------------------------------------------------------- cost model
def test_cost_model_copy_uses_configured_prefetch():
    fast = CostModel(prefetch=PrefetchMode.FULL)
    slow = CostModel(prefetch=PrefetchMode.NONE)
    assert slow.copy_cycles(1448) > fast.copy_cycles(1448)


@pytest.mark.parametrize("mode", list(PrefetchMode))
def test_cost_model_resolves_the_cache_model_exactly(mode):
    """The cost model resolves its mode's miss cost once; every charge is
    still the cache model's to the last bit, also after ``replace``."""
    import dataclasses

    costs = dataclasses.replace(CostModel(), prefetch=mode)
    cache = costs.cache
    assert costs.line_miss_cycles == cache.sequential_miss_cycles[mode]
    for nbytes in (0, 1, 63, 64, 65, 1448, 2896, 65536, 100_003):
        assert costs.copy_cycles(nbytes) == cache.sequential_copy_cycles(nbytes, mode)
        assert costs.checksum_cycles(nbytes) == cache.sequential_checksum_cycles(nbytes, mode)


def test_baseline_up_calibration_identity():
    """The per-packet constants must sum to the Figure 3 calibration
    targets (documented in DESIGN.md): a drift here silently decalibrates
    every experiment."""
    c = CostModel()
    # driver category per packet: rx work + MAC miss + amortized irq + ack tx share
    driver = c.driver_rx_per_packet + c.mac_rx_processing
    assert 1800 < driver < 2000
    # rx category per host packet
    assert c.ip_rx + c.tcp_rx == pytest.approx(1150)
    # tx per ACK (one ACK per two packets -> ~1040/packet)
    assert c.tcp_tx_ack + c.ip_tx == pytest.approx(2080)
    # buffer: 1.5 skbs per packet (data + half an ACK)
    assert (c.skb_alloc + c.skb_free) * 1.5 == pytest.approx(1350)
    # per-byte at full prefetch
    assert c.copy_cycles(1448) == pytest.approx(1776)


# ---------------------------------------------------------------- locks
def test_lock_model_disabled_is_identity():
    locks = LockModel(enabled=False)
    assert locks.factor(Category.RX) == 1.0


def test_lock_model_paper_factors():
    """§2.3: rx +62%, tx +40%, buffer and per-byte unchanged."""
    locks = LockModel(enabled=True)
    assert locks.factor(Category.RX) == pytest.approx(1.62)
    assert locks.factor(Category.TX) == pytest.approx(1.40)
    assert locks.factor(Category.BUFFER) == 1.0
    assert locks.factor(Category.PER_BYTE) == 1.0
    assert locks.factor(Category.AGGR) == 1.0  # per-CPU, lock-free (§3.5)


def test_lock_model_unknown_category_defaults_to_one():
    assert LockModel(enabled=True).factor("nonexistent") == 1.0


# ---------------------------------------------------------------- profiler
def test_profiler_accumulates_and_snapshots():
    prof = Profiler()
    prof.add(Category.RX, 100)
    prof.add(Category.RX, 50)
    prof.add(Category.TX, 30)
    prof.network_packets += 3
    snap = prof.snapshot(time=1.0)
    assert snap.cycles[Category.RX] == 150
    assert snap.total_cycles == 180
    assert snap.cycles_per_packet([Category.RX, Category.TX]) == {Category.RX: 50.0, Category.TX: 10.0}


def test_snapshot_diff():
    prof = Profiler()
    prof.add(Category.RX, 100)
    prof.network_packets += 1
    s1 = prof.snapshot(1.0)
    prof.add(Category.RX, 40)
    prof.add(Category.MISC, 5)
    prof.network_packets += 2
    s2 = prof.snapshot(3.0)
    delta = s2.diff(s1)
    assert delta.cycles[Category.RX] == 40
    assert delta.cycles[Category.MISC] == 5
    assert delta.network_packets == 2
    assert delta.time == 2.0


def test_share_computation():
    prof = Profiler()
    prof.add(Category.RX, 75)
    prof.add(Category.TX, 25)
    snap = prof.snapshot(0.0)
    assert snap.share(Category.RX) == 0.75
    assert snap.share("missing") == 0.0


def test_aggregation_degree():
    prof = Profiler()
    prof.network_packets += 20
    prof.host_packets += 4
    assert prof.aggregation_degree == 5.0


def test_merged_profiles():
    a, b = Profiler(), Profiler()
    a.add(Category.RX, 10)
    b.add(Category.RX, 20)
    b.add(Category.TX, 5)
    a.network_packets += 1
    b.network_packets += 2
    merged = a.merged([b])
    assert merged.cycles[Category.RX] == 30
    assert merged.cycles[Category.TX] == 5
    assert merged.network_packets == 3
