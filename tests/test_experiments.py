"""Paper-band tests: every experiment must reproduce the paper's *shape*.

These run the real harnesses at quick fidelity and assert the qualitative
claims (who wins, by roughly what factor, where the knees are).  Absolute
tolerances are deliberately loose — the substrate is a simulator.
"""

import functools

import pytest

from repro.cpu.categories import Category
from repro.experiments import REGISTRY, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run each experiment once per test session (they are deterministic)."""
    cache = {}

    def get(eid):
        if eid not in cache:
            cache[eid] = run_experiment(eid, quick=True)
        return cache[eid]

    return get


def test_registry_complete():
    expected = {
        "figure1", "figure2", "figure3", "figure4", "figure6", "figure7",
        "figure8", "figure9", "figure10", "figure11", "figure12",
        "table1", "ablation_limit1",
        "extension_hw_lro", "extension_jumbo", "extension_itr",
        "extension_bidirectional", "extension_load_sensitivity", "extension_tso",
        "extension_rss_scaling", "extension_resilience",
        "extension_zero_copy",
    }
    assert set(REGISTRY) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("figure99")


def test_queues_rejected_before_running_an_experiment_without_a_sweep(monkeypatch):
    ran = []
    figure7 = REGISTRY["figure7"]

    @functools.wraps(figure7)
    def spy(*args, **kwargs):
        ran.append(True)
        return figure7(*args, **kwargs)

    monkeypatch.setitem(REGISTRY, "figure7", spy)
    with pytest.raises(ValueError, match="--queues"):
        run_experiment("figure7", queues=[2])
    assert not ran


# ---------------------------------------------------------------- figure 1
def test_figure1_prefetch_shifts_shares(results):
    r = results("figure1")
    none = r.row(prefetch="none")
    full = r.row(prefetch="full")
    # Paper: per-byte 52% -> 14%; per-packet 37% -> ~70%.
    assert none["per-byte %"] > 45
    assert full["per-byte %"] < 25
    assert none["per-packet %"] < none["per-byte %"]
    assert full["per-packet %"] > 3 * full["per-byte %"]
    # Throughput improves with prefetching (cheaper copies).
    assert full["throughput Mb/s"] > none["throughput Mb/s"]


# ---------------------------------------------------------------- figure 2
def test_figure2_per_packet_dominates_everywhere(results):
    r = results("figure2")
    for row in r.rows:
        assert row["per-packet %"] > 2.5 * row["per-byte %"], row["system"]


# ---------------------------------------------------------------- figure 3
def test_figure3_up_breakdown_shares(results):
    r = results("figure3")
    by_cat = {row["category"]: row["cycles/packet"] for row in r.rows}
    total = sum(by_cat.values())
    assert by_cat[Category.DRIVER] / total == pytest.approx(0.21, abs=0.04)
    assert by_cat[Category.PER_BYTE] / total == pytest.approx(0.17, abs=0.04)
    rx_tx = (by_cat[Category.RX] + by_cat[Category.TX]) / total
    assert rx_tx == pytest.approx(0.21, abs=0.04)
    buf_np = (by_cat[Category.BUFFER] + by_cat[Category.NON_PROTO]) / total
    assert buf_np == pytest.approx(0.25, abs=0.05)
    assert total == pytest.approx(10400, rel=0.10)


# ---------------------------------------------------------------- figure 4
def test_figure4_smp_lock_inflation(results):
    r = results("figure4")
    by_cat = {row["category"]: row for row in r.rows}
    rx = by_cat[Category.RX]
    tx = by_cat[Category.TX]
    buf = by_cat[Category.BUFFER]
    pb = by_cat[Category.PER_BYTE]
    assert rx["SMP"] / rx["UP"] == pytest.approx(1.62, abs=0.08)
    assert tx["SMP"] / tx["UP"] == pytest.approx(1.40, abs=0.08)
    assert buf["SMP"] / buf["UP"] == pytest.approx(1.0, abs=0.05)
    assert pb["SMP"] / pb["UP"] == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------- figure 6
def test_figure6_xen_breakdown_shares(results):
    r = results("figure6")
    by_cat = {row["category"]: row["cycles/packet"] for row in r.rows}
    total = sum(by_cat.values())
    virt = sum(by_cat.get(c, 0) for c in Category.XEN_PER_PACKET_GROUP) / total
    tcp = (by_cat.get(Category.TCP_RX, 0) + by_cat.get(Category.TCP_TX, 0)) / total
    per_byte = by_cat[Category.PER_BYTE] / total
    assert virt == pytest.approx(0.56, abs=0.08)
    assert tcp == pytest.approx(0.10, abs=0.04)
    assert per_byte == pytest.approx(0.14, abs=0.04)


# ---------------------------------------------------------------- figure 7
def test_figure7_throughput_bands(results):
    r = results("figure7")
    up = r.row(system="Linux UP")
    smp = r.row(system="Linux SMP")
    xen = r.row(system="Xen")
    # Baselines near the paper's absolute numbers (simulated substrate: ±10%).
    assert up["Original Mb/s"] == pytest.approx(3452, rel=0.10)
    assert smp["Original Mb/s"] == pytest.approx(2988, rel=0.10)
    assert xen["Original Mb/s"] == pytest.approx(1088, rel=0.10)
    # Optimized native systems saturate the five GbE links.
    assert up["Optimized Mb/s"] == pytest.approx(4660, rel=0.05)
    assert smp["Optimized Mb/s"] == pytest.approx(4660, rel=0.05)
    # Gains ordered and in band: Xen > SMP > UP, all large.
    assert xen["gain %"] > smp["gain %"] > up["gain %"] > 25
    # Paper: +86%.  Our simulated aggregation degree runs a little higher
    # than the testbed's, pushing the Xen gain above the paper's point value.
    assert xen["gain %"] == pytest.approx(86, abs=35)
    # Aggregation alone yields smaller but real gains (paper: 26/36/45%).
    assert 15 < up["AggOnly gain %"] < up["gain %"]
    assert 20 < smp["AggOnly gain %"] < smp["gain %"]
    assert 30 < xen["AggOnly gain %"] < xen["gain %"]


# ---------------------------------------------------------------- figures 8-10
def test_figure8_up_reduction_and_aggr_cost(results):
    r = results("figure8")
    by_cat = {row["category"]: row for row in r.rows}
    group = Category.NATIVE_PER_PACKET_GROUP
    orig = sum(by_cat[c]["Original"] for c in group)
    opt = sum(by_cat[c]["Optimized"] for c in group)
    assert 3.0 < orig / opt < 12.0  # paper: 4.3x
    # aggr cost near the paper's 789 cycles/packet (mostly the header miss).
    assert by_cat[Category.AGGR]["Optimized"] == pytest.approx(789, rel=0.25)
    assert by_cat[Category.AGGR]["Original"] == 0
    # driver lost its MAC-processing miss (~681 cycles).
    saving = by_cat[Category.DRIVER]["Original"] - by_cat[Category.DRIVER]["Optimized"]
    assert saving == pytest.approx(681, rel=0.35)


def test_figure9_smp_reduction_larger_than_up(results):
    r8 = results("figure8")
    r9 = results("figure9")

    def group_cycles(result, col):
        by_cat = {row["category"]: row for row in result.rows}
        return sum(by_cat[c][col] for c in Category.NATIVE_PER_PACKET_GROUP)

    # The §2.3 mechanism: SMP locking inflates the baseline per-packet group...
    assert group_cycles(r9, "Original") > 1.15 * group_cycles(r8, "Original")
    # ...and the lock-free aggregation path removes (at least) as large a
    # factor of it as on UP (paper: 5.5 vs 4.3; at our higher aggregation
    # degree both factors run larger and nearly converge).
    f8 = group_cycles(r8, "Original") / group_cycles(r8, "Optimized")
    f9 = group_cycles(r9, "Original") / group_cycles(r9, "Optimized")
    assert f8 > 4 and f9 > 4
    assert f9 > 0.9 * f8


def test_figure10_xen_reduction_and_structure(results):
    r = results("figure10")
    by_cat = {row["category"]: row for row in r.rows}
    group = Category.XEN_PER_PACKET_GROUP
    orig = sum(by_cat[c]["Original"] for c in group)
    opt = sum(by_cat[c]["Optimized"] for c in group)
    assert 2.5 < orig / opt < 8.0  # paper: 3.7x

    def reduction(cat):
        return by_cat[cat]["Original"] / by_cat[cat]["Optimized"]

    # Bridge/netfilter reduced most; netback/netfront least (per-fragment).
    assert reduction(Category.NON_PROTO) > reduction(Category.NETBACK)
    assert reduction(Category.NON_PROTO) > reduction(Category.NETFRONT)
    # aggr overhead is small relative to what it removes.
    assert by_cat[Category.AGGR]["Optimized"] < 0.1 * orig


# ---------------------------------------------------------------- figure 11
def test_figure11_x_plus_y_over_k_shape(results):
    r = results("figure11")
    rows = {row["limit"]: row for row in r.rows}
    limits = sorted(rows)
    cycles = [rows[k]["cycles/packet"] for k in limits]
    # Monotone non-increasing (within noise) and convex: the x + y/k model
    # means the per-limit slope collapses as k grows.
    assert cycles[0] == max(cycles)
    first_slope = (cycles[0] - cycles[1]) / (limits[1] - limits[0])
    tail_slope = (cycles[-2] - cycles[-1]) / (limits[-1] - limits[-2])
    assert first_slope > 8 * max(tail_slope, 1)
    # Most of the total benefit is achieved by limit 20 (the paper's choice).
    total_benefit = cycles[0] - cycles[-1]
    at_20 = rows[20]["cycles/packet"] if 20 in rows else cycles[-2]
    assert (cycles[0] - at_20) > 0.75 * total_benefit
    # Measured curve tracks the analytic x + y/k model.
    for k in limits:
        assert rows[k]["cycles/packet"] == pytest.approx(rows[k]["model x+y/k"], rel=0.15)


# ---------------------------------------------------------------- figure 12
def test_figure12_scales_to_many_connections(results):
    r = results("figure12")
    last = r.rows[-1]
    assert last["connections"] >= 400
    assert last["gain %"] >= 40  # paper: at least 40% better at 400
    for row in r.rows:
        assert row["Optimized Mb/s"] > row["Original Mb/s"]
    # Optimized throughput stays near NIC saturation throughout.
    assert min(row["Optimized Mb/s"] for row in r.rows) > 4300


# ---------------------------------------------------------------- table 1
def test_table1_latency_unaffected(results):
    r = results("table1")
    for row in r.rows:
        assert abs(row["delta %"]) < 1.0, row["system"]
    up = r.row(system="Linux UP")
    assert up["Original req/s"] == pytest.approx(7874, rel=0.05)
    xen = r.row(system="Xen")
    assert xen["Original req/s"] < up["Original req/s"]  # virtualization adds latency


# ---------------------------------------------------------------- ablation
def test_ablation_limit_one_no_meaningful_degradation(results):
    r = results("ablation_limit1")
    base = r.row(configuration="Baseline")
    limit1 = r.row(configuration="Optimized, limit=1")
    delta = limit1["throughput Mb/s"] / base["throughput Mb/s"] - 1
    assert delta > -0.05  # paper: "no degradation observed"


# ---------------------------------------------------------------- rendering
def test_every_experiment_renders_text(results):
    for eid in ("figure3", "figure7", "table1"):
        text = results(eid).to_text()
        assert eid in text
        assert len(text.splitlines()) > 3
