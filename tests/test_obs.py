"""Observability layer (`repro.obs`): units, neutrality, reconciliation.

Three claims are under test (DESIGN.md §8):

1. **Unit behaviour** — tracer ring/drop semantics, Chrome export validity,
   metrics registry kinds and conflicts, sampler scheduling on sim time,
   the observe() lifecycle.
2. **Behaviour neutrality** — measured figure rows are bit-identical with
   full observation (trace + metrics + sampling) on or off.
3. **Reconciliation** — per-stage span counts agree with the subsystems'
   own packet counters, so a trace is evidence rather than narrative.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.config import OptimizationConfig
from repro.experiments.runner import run_experiment
from repro.host.configs import linux_up_config
from repro.obs import (
    MetricsRegistry,
    Stage,
    TimeSeriesSampler,
    Tracer,
    chrome_envelope,
    validate_chrome_trace,
)
from repro.obs.trace import cpu_tid
from repro.sim.engine import Simulator
from repro.workloads.stream import build_stream_rig, run_stream_experiment

from tests.conftest import assert_rows_match_pin


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with observation fully off."""
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# tracer units
# ----------------------------------------------------------------------
class TestTracer:
    def test_records_span_and_instant(self):
        tr = Tracer()
        tr.event(Stage.NIC_RX, ts=0.001, args={"seq": 1})
        tr.event(Stage.SOFTIRQ, ts=0.002, dur=0.0005, tid=1)
        assert len(tr) == 2
        assert tr.count(Stage.NIC_RX) == 1
        assert tr.count(Stage.SOFTIRQ) == 1
        assert tr.count(Stage.TCP_RX) == 0

    def test_ring_drops_oldest_and_counts(self):
        tr = Tracer(limit=3)
        for i in range(5):
            tr.event(Stage.NIC_RX, ts=i * 0.001, args={"i": i})
        assert len(tr) == 3
        assert tr.events_dropped == 2
        # The survivors are the *latest* events.
        assert [ev[4]["i"] for ev in tr.events] == [2, 3, 4]
        # Totals survive truncation: reconciliation works on span_counts.
        assert tr.count(Stage.NIC_RX) == 5

    def test_ring_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(limit=0)

    def test_span_duration_feeds_latency_histogram(self):
        tr = Tracer()
        tr.event(Stage.DRIVER_ISR, ts=0.0, dur=1e-6)
        tr.latency("latency.nic_to_tcp", 2e-6)
        hists = tr.latency_histograms()
        assert hists[Stage.DRIVER_ISR]["total"] == 1
        assert hists["latency.nic_to_tcp"]["mean"] == pytest.approx(2000.0)

    def test_chrome_trace_is_valid_and_microseconds(self):
        tr = Tracer()
        tr.event(Stage.TCP_RX, ts=0.01, args={"seq": 7})
        tr.event(Stage.SOFTIRQ, ts=0.01, dur=0.002, tid=3)
        doc = tr.to_chrome_trace("unit")
        assert validate_chrome_trace(doc) == []
        spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
        assert spans[0]["ts"] == pytest.approx(10_000.0)  # 0.01 s -> µs
        assert spans[0]["dur"] == pytest.approx(2_000.0)
        # Metadata names the process (run label) and each CPU thread.
        metas = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        names = {ev["args"]["name"] for ev in metas}
        assert "unit" in names and "cpu3" in names

    def test_envelope_one_pid_per_run(self):
        a, b = Tracer(), Tracer()
        a.event(Stage.NIC_RX, ts=0.0)
        b.event(Stage.NIC_RX, ts=0.0)
        doc = chrome_envelope([("base", a), ("opt", b)])
        assert validate_chrome_trace(doc) == []
        pids = {ev["pid"] for ev in doc["traceEvents"] if ev.get("ph") != "M"}
        assert pids == {0, 1}

    def test_validator_flags_broken_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_event = {"traceEvents": [{"name": "x", "ph": "X", "pid": 0}]}
        assert any("missing" in p for p in validate_chrome_trace(bad_event))

    def test_cpu_tid_parses_trailing_index(self):
        class FakeCpu:
            def __init__(self, name):
                self.name = name

        assert cpu_tid(FakeCpu("server-cpu3")) == 3
        assert cpu_tid(FakeCpu("server-cpu12")) == 12
        assert cpu_tid(FakeCpu("lonecpu")) == 0


# ----------------------------------------------------------------------
# metrics registry units
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("rx.frames")
        c.inc()
        c.inc(4)
        g = reg.gauge("ring.occupancy")
        g.set(17)
        h = reg.histogram("merge.size")
        for v in (1, 2, 3, 8):
            h.observe(v)
        doc = reg.to_json()
        assert doc["rx.frames"] == {"kind": "counter", "value": 5}
        assert doc["ring.occupancy"]["value"] == 17
        assert doc["merge.size"]["value"]["total"] == 4

    def test_reregistration_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_callback_gauge_reads_lazily(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.gauge("live", fn=lambda: state["v"])
        state["v"] = 42
        assert reg.to_json()["live"]["value"] == 42

    def test_collect_sorted_and_render_text(self):
        reg = MetricsRegistry()
        reg.counter("b.second")
        reg.counter("a.first")
        names = [row["name"] for row in reg.collect()]
        assert names == ["a.first", "b.second"]
        text = reg.render_text("t")
        assert "a.first: 0" in text and text.startswith("t: 2 metrics")

    def test_log2_histogram_buckets(self):
        from repro.obs import Log2Histogram

        h = Log2Histogram("h")
        for v in (0, 1, 2, 3, 4):
            h.observe(v)
        buckets = {(b["lo"], b["hi"]): b["count"] for b in h.buckets()}
        # 0 -> [0,1); 1 -> [1,2); 2,3 -> [2,4); 4 -> [4,8)
        assert buckets == {(0, 1): 1, (1, 2): 1, (2, 4): 2, (4, 8): 1}


# ----------------------------------------------------------------------
# sampler units
# ----------------------------------------------------------------------
class TestSampler:
    def test_samples_on_sim_time_and_stops_at_horizon(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval=0.01)
        series = sampler.add_probe("t", lambda: sim.now)
        sampler.start(horizon=0.05)
        sim.run(until=0.2)
        assert sampler.samples_taken == 5
        assert series.times == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05])
        # The sampler never reschedules past the horizon: the heap drained.
        assert sim.now == 0.2

    def test_rate_probe_differences(self):
        sim = Simulator()
        state = {"bytes": 100}
        sampler = TimeSeriesSampler(sim, interval=0.01)
        series = sampler.add_rate_probe("rate", lambda: state["bytes"], scale=1.0)

        def bump():
            state["bytes"] += 50

        sim.call_at(0.005, bump)
        sim.call_at(0.015, bump)
        sampler.start(horizon=0.02)
        sim.run(until=0.02)
        # Seeded at registration (100): sample 1 sees +50, sample 2 sees +50.
        assert series.values == pytest.approx([5000.0, 5000.0])

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(Simulator(), interval=0.0)

    def test_to_json_and_dashboard(self):
        sim = Simulator()
        sampler = TimeSeriesSampler(sim, interval=0.01)
        sampler.add_probe("x", lambda: 1.0)
        sampler.start(horizon=0.03)
        sim.run(until=0.03)
        doc = sampler.to_json()
        assert doc["samples"] == 3
        assert doc["series"]["x"]["t"] == doc["series"]["x"]["t"]
        assert len(doc["series"]["x"]["v"]) == 3
        assert "x" in sampler.render_dashboard()


# ----------------------------------------------------------------------
# runtime lifecycle
# ----------------------------------------------------------------------
class TestRuntime:
    def test_observe_disabled_yields_none(self):
        with obs.observe("off") as o:
            assert o is None
        assert obs.drain_completed() == []

    def test_observe_enabled_collects_and_archives(self):
        obs.configure(trace=True, metrics=True)
        with obs.observe("run1") as o:
            assert o.tracer is not None and o.metrics is not None
            assert obs.active_tracer() is o.tracer
            assert obs.active_metrics() is o.metrics
        assert obs.active() is None
        done = obs.drain_completed()
        assert [d.label for d in done] == ["run1"]
        assert obs.drain_completed() == []

    def test_observe_is_reentrant(self):
        obs.configure(trace=True)
        with obs.observe("outer") as outer:
            with obs.observe("inner") as inner:
                assert inner is outer
        assert [d.label for d in obs.drain_completed()] == ["outer"]

    def test_reset_clears_config_and_archive(self):
        obs.configure(trace=True, metrics=True, sample_interval=0.01)
        with obs.observe("x"):
            pass
        obs.reset()
        assert not obs.config().enabled
        assert obs.drain_completed() == []

    def test_observation_to_json_shape(self):
        obs.configure(trace=True, metrics=True)
        with obs.observe("doc") as o:
            o.tracer.event(Stage.NIC_RX, ts=0.0)
            o.metrics.counter("c").inc()
        doc = o.to_json()
        assert doc["label"] == "doc"
        assert doc["trace"]["span_counts"] == {Stage.NIC_RX: 1}
        assert doc["metrics"]["c"]["value"] == 1


# ----------------------------------------------------------------------
# schema checker (`python -m repro.obs check`)
# ----------------------------------------------------------------------
class TestSchemaChecker:
    def test_classifies_each_document_kind(self):
        from repro.obs.__main__ import check_document

        assert check_document({"traceEvents": []})[0] == "chrome-trace"
        assert check_document({"records": [{"time": 0.0}]}) == ("capture", [])
        assert check_document({"runs": []})[0] == "observation-bundle"
        kind, problems = check_document(
            {"experiment": "figure3", "breakdown": {"base": {"driver": 1.0}}}
        )
        assert (kind, problems) == ("profile", [])
        assert check_document({"metrics": {}, "label": "x"})[0] == "observation"
        assert check_document({"nope": 1})[0] == "unknown"

    def test_flags_broken_documents(self):
        from repro.obs.__main__ import check_document

        assert check_document({"records": [{"no_time": 1}]})[1]
        assert check_document(
            {"metrics": {"m": {"kind": "bogus", "value": 0}}}
        )[1]
        assert check_document(
            {"series": {"s": {"t": [0.0], "v": []}}}
        )[1]

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        good = tmp_path / "good.json"
        good.write_text(json.dumps({"traceEvents": []}))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(good)]) == 0
        assert main(["check", str(good), str(bad)]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# behaviour neutrality: instrumented rows are bit-identical to the pin
# ----------------------------------------------------------------------
def _run_quick_observed(experiment_id: str):
    obs.configure(trace=True, metrics=True, sample_interval=0.005)
    try:
        observed = run_experiment(experiment_id, quick=True)
        done = obs.drain_completed()
    finally:
        obs.reset()
    return observed, done


def test_figure07_rows_neutral_under_full_observation():
    observed, done = _run_quick_observed("figure7")
    assert_rows_match_pin("figure7", observed, "full observation")
    assert done and all(o.tracer is not None and len(o.tracer) > 0 for o in done)


def test_figure12_rows_neutral_under_full_observation():
    observed, done = _run_quick_observed("figure12")
    assert_rows_match_pin("figure12", observed, "full observation")
    assert done


def test_mq_stream_neutral_under_full_observation():
    from repro.workloads.stream import run_stream_experiment

    def point():
        return run_stream_experiment(
            linux_up_config(),
            OptimizationConfig.optimized(),
            queues=2,
            duration=0.05,
            warmup=0.05,
        )

    plain = point()
    obs.configure(trace=True, metrics=True, sample_interval=0.005)
    try:
        observed = point()
        done = obs.drain_completed()
    finally:
        obs.reset()
    # Everything measured matches except the sampler's own scheduler events
    # and the attached series document.
    for name in (
        "system", "optimized", "throughput_mbps", "cpu_utilization",
        "bytes_received", "network_packets", "host_packets", "acks_sent",
        "aggregation_degree", "cycles_per_packet", "breakdown",
        "ring_drops", "retransmits",
    ):
        assert getattr(plain, name) == getattr(observed, name), name
    assert observed.series is not None and done


def test_series_attached_to_result_and_rows_exclude_it():
    obs.configure(sample_interval=0.005)
    try:
        result = run_stream_experiment(
            linux_up_config(), OptimizationConfig.optimized(),
            duration=0.05, warmup=0.05,
        )
    finally:
        obs.reset()
    assert result.series is not None
    assert result.series["samples"] > 0
    assert "throughput_mbps" in result.series["series"]


# ----------------------------------------------------------------------
# reconciliation: span counts vs subsystem counters
# ----------------------------------------------------------------------
def _traced_rig(opt: OptimizationConfig, **config_overrides):
    import dataclasses

    config = linux_up_config()
    if config_overrides:
        config = dataclasses.replace(config, **config_overrides)
    obs.configure(trace=True)
    with obs.observe("recon") as o:
        sim, machine, _clients, senders = build_stream_rig(config, opt)
        sim.run(until=0.1)
    obs.reset()
    return o.tracer, machine, senders


@pytest.mark.parametrize(
    "opt", [OptimizationConfig.baseline(), OptimizationConfig.optimized()],
    ids=["baseline", "optimized"],
)
def test_span_counts_reconcile_with_counters(opt):
    tr, machine, _senders = _traced_rig(opt)
    nics = machine.nics
    assert tr.count(Stage.NIC_RX) == sum(n.stats.rx_frames for n in nics) > 0
    assert tr.count(Stage.RING_POST) == sum(
        q.ring.posted for n in nics for q in n.queues
    )
    assert tr.count(Stage.RING_DROP) == sum(
        q.ring.dropped for n in nics for q in n.queues
    )
    assert tr.count(Stage.TCP_RX) == machine.cpu.profiler.host_packets > 0
    # §4: every template the stack emitted was expanded exactly once.
    assert tr.count(Stage.ACK_TEMPLATE) == tr.count(Stage.ACK_EXPAND)
    if opt.receive_aggregation:
        assert tr.count(Stage.AGGR_RUN) > 0
        assert tr.count(Stage.ACK_TEMPLATE) > 0
    else:
        assert tr.count(Stage.SOFTIRQ) > 0


def test_lro_spans_reconcile_with_engine_counters():
    tr, machine, _senders = _traced_rig(
        OptimizationConfig.baseline(), nic_lro=True
    )
    merged = sum(
        q.lro.merged_segments
        for n in machine.nics for q in n.queues if q.lro is not None
    )
    assert tr.count(Stage.LRO_MERGE) == merged > 0


# ----------------------------------------------------------------------
# determinism of the observability output itself
# ----------------------------------------------------------------------
def test_trace_and_metrics_deterministic_across_seeded_runs():
    docs = []
    for _ in range(2):
        obs.configure(trace=True, metrics=True, sample_interval=0.005)
        with obs.observe("det") as o:
            sim, machine, _clients, senders = build_stream_rig(
                linux_up_config(), OptimizationConfig.optimized()
            )
            from repro.workloads.stream import bind_observation

            bind_observation(o, sim, machine, senders, horizon=0.1)
            sim.run(until=0.1)
        docs.append(
            json.dumps(
                {"obs": o.to_json(), "chrome": o.tracer.to_chrome_trace("det")},
                sort_keys=True,
            )
        )
        obs.reset()
    assert docs[0] == docs[1]
