"""Workload harness tests: measurement accounting and result sanity."""

import pytest

from repro.core.config import OptimizationConfig
from repro.workloads.request_response import run_rr_experiment
from repro.workloads.results import LatencyResult
from repro.workloads.stream import build_stream_rig, run_stream_experiment

from tests.conftest import fast_config


def small_run(opt, **kw):
    return run_stream_experiment(fast_config(), opt, duration=0.04, warmup=0.04, **kw)


def test_throughput_result_fields_consistent():
    r = small_run(OptimizationConfig.baseline())
    assert r.system == "Linux UP"
    assert not r.optimized
    assert r.bytes_received > 0
    assert r.throughput_mbps == pytest.approx(r.bytes_received * 8 / r.duration_s / 1e6)
    assert 0 < r.cpu_utilization <= 1
    assert r.network_packets > 0
    assert r.cycles_per_packet == pytest.approx(
        sum(r.breakdown.values()), rel=1e-6
    )


def test_cpu_scaled_throughput_definition():
    r = small_run(OptimizationConfig.optimized())
    assert r.cpu_scaled_mbps == pytest.approx(r.throughput_mbps / r.cpu_utilization)


def test_baseline_has_aggregation_degree_one():
    r = small_run(OptimizationConfig.baseline())
    assert r.aggregation_degree == pytest.approx(1.0, abs=0.01)


def test_optimized_reports_aggregation_degree():
    r = small_run(OptimizationConfig.optimized())
    assert r.aggregation_degree > 3


def test_share_and_group_helpers():
    r = small_run(OptimizationConfig.baseline())
    total = sum(r.share(c) for c in r.breakdown)
    assert total == pytest.approx(1.0)
    assert r.group_cycles(["rx", "tx"]) == pytest.approx(r.breakdown["rx"] + r.breakdown["tx"])


def test_multi_connection_rig_spreads_over_nics():
    sim, machine, clients, senders = build_stream_rig(
        fast_config(), OptimizationConfig.baseline(), n_connections=6
    )
    assert len(clients) == 2
    assert len(senders) == 6
    per_client = [len(c.connections) for c in clients]
    assert per_client == [3, 3]


def test_more_connections_than_nics_still_measures():
    r = small_run(OptimizationConfig.optimized(), n_connections=8)
    assert r.throughput_mbps > 500


def test_rr_latency_result_sane():
    r = run_rr_experiment(fast_config(), OptimizationConfig.baseline(), duration=0.1, warmup=0.05)
    assert isinstance(r, LatencyResult)
    assert r.transactions > 100
    assert 0 < r.mean_rtt_s < 1e-3
    assert r.transactions_per_sec == pytest.approx(r.transactions / r.duration_s)


def test_rr_request_response_sizes_respected():
    """A transaction ends when the whole response has arrived: a response
    larger than one MSS takes several segments, so the link rate bounds
    both how many transactions fit the window and how short one can be."""
    config = fast_config()
    response_size = 4096
    r = run_rr_experiment(
        config, OptimizationConfig.baseline(),
        duration=0.1, warmup=0.05, request_size=128, response_size=response_size,
    )
    assert response_size > config.mss
    assert r.transactions > 50
    wire_s = response_size * 8 / config.nic_rate_bps
    assert r.transactions * wire_s <= r.duration_s
    assert r.mean_rtt_s >= wire_s


def test_zero_duration_latency_rate():
    r = LatencyResult(system="x", optimized=False, transactions=0, duration_s=0, mean_rtt_s=0)
    assert r.transactions_per_sec == 0.0


def test_throughput_deterministic_replay():
    a = small_run(OptimizationConfig.optimized())
    b = small_run(OptimizationConfig.optimized())
    assert a.throughput_mbps == pytest.approx(b.throughput_mbps, rel=1e-12)
    assert a.cycles_per_packet == pytest.approx(b.cycles_per_packet, rel=1e-12)
