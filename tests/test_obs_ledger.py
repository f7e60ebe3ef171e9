"""Cycle ledger (`repro.obs.ledger`), diff and flame.

Four claims are under test (DESIGN.md §11):

1. **Exact reconciliation** — every cycle through ``Cpu.consume`` lands in
   exactly one (cpu, category, stage, flow, phase) cell; the ledger's
   shadows are bit-equal to ``busy_cycles`` and the profiler, and the
   exact integer cells sum to the recorded totals.  The sanitizer audits
   this during the run and a tampered cell trips it.
2. **Behaviour neutrality** — figure rows and streaming measured fields
   are bit-identical with the ledger on or off; the ledger schedules
   nothing, so even ``events_fired`` survives.
3. **Exact differential profiling** — ``diff(A, A)`` is empty, marginal
   delta sums reconcile with the total delta exactly, and the baseline-vs-
   optimized per-category signs agree with the profiler's own deltas.
4. **Deterministic artifacts** — ledger JSON, flamegraph text, and
   quantiles are byte-identical across seeded reruns and validate under
   ``python -m repro.obs check``.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro import obs
from repro.analysis.sanitizer import InvariantViolation, SimSanitizer
from repro.core.config import OptimizationConfig
from repro.experiments.runner import run_experiment
from repro.host.configs import linux_smp_config, linux_up_config, xen_config
from repro.obs import runtime as obs_runtime
from repro.obs.diff import diff_ledgers, marginal
from repro.obs.flame import check_flame_text, collapsed_text
from repro.obs.ledger import SCHEMA, UNIT_SCALE, check_ledger_document
from repro.sim.engine import install_checker, uninstall_checker
from repro.workloads.stream import build_stream_rig, observed_run, run_stream_experiment

from tests.conftest import assert_rows_match_pin


@pytest.fixture(autouse=True)
def _obs_reset():
    """Every test starts and ends with observation fully off."""
    obs.reset()
    yield
    obs.reset()


def _ledgered_stream(label, until=0.05, **rig_options):
    """Run a stream rig to ``until`` inside a ledger-enabled observed run,
    measuring from ``until / 2``; returns the rig."""
    obs.configure(ledger=True)
    build = partial(build_stream_rig, **rig_options)
    with observed_run(label, build, until / 2, until, {5001: "stream"}) as rig:
        rig.sim.run(until=until)
    return rig


def _run_rig_with_ledger(config, opt, until=0.05):
    """Build + run a stream rig inside a ledger-enabled observation; return
    (ledger, machine)."""
    rig = _ledgered_stream("recon", until, config=config, opt=opt)
    return rig.obs.ledger, rig.machine


# ----------------------------------------------------------------------
# 1. exact reconciliation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config_fn, opt",
    [
        (linux_up_config, OptimizationConfig.baseline()),
        (linux_up_config, OptimizationConfig.optimized()),
        (linux_smp_config, OptimizationConfig.optimized()),
        (xen_config, OptimizationConfig.baseline()),
        (xen_config, OptimizationConfig.optimized()),
    ],
    ids=["up-base", "up-opt", "smp-opt", "xen-base", "xen-opt"],
)
def test_ledger_reconciles_exactly_on_every_machine_type(config_fn, opt):
    led, machine = _run_rig_with_ledger(config_fn(), opt)
    cpus = machine.cpus
    assert sum(cpu.busy_cycles for cpu in cpus) > 0
    assert led.verify(cpus) == []
    # Every dimension is populated: stages were pushed, flows classified,
    # phases advanced.
    stages = {key[2] for key in led.cells}
    flows = {key[3] for key in led.cells}
    phases = {key[4] for key in led.cells}
    assert any(s != "-" for s in stages)
    assert "stream" in flows
    assert {"warmup", "measure"} <= phases


def test_ledger_reconciles_on_mq4_rig():
    rig = _ledgered_stream(
        "mq4", config=linux_smp_config(), opt=OptimizationConfig.optimized(), queues=4
    )
    cpus = rig.machine.cpus
    assert len(cpus) == 4
    assert rig.obs.ledger.verify(cpus) == []


def test_sanitizer_audits_figure7_and_zcrx_and_many_under_ledger():
    """The sanitizer's deep audit re-verifies reconciliation every few
    hundred events across the whole figure7 mix, a memory-hierarchy zcrx
    run, and the many-connection workload — any drift raises."""
    from repro.experiments.extension_zero_copy import measure_mode
    from repro.workloads.many import ManyConnWorkload, run_many_connection_experiment

    install_checker(SimSanitizer)
    try:
        obs.configure(ledger=True)
        for config_fn in (linux_up_config, linux_smp_config, xen_config):
            for opt in (OptimizationConfig.baseline(), OptimizationConfig.optimized()):
                run_stream_experiment(
                    config_fn(), opt, duration=0.02, warmup=0.02
                )
        measure_mode("up", 16 << 20, 1, True, 0.02, 0.02)
        run_many_connection_experiment(
            linux_up_config(),
            OptimizationConfig.optimized(),
            ManyConnWorkload(n_connections=50),
            duration=0.02,
            warmup=0.02,
        )
    finally:
        obs.reset()
        uninstall_checker(SimSanitizer)


def test_sanitizer_catches_tampered_ledger_cell():
    install_checker(SimSanitizer)
    try:
        obs.configure(ledger=True)
        with pytest.raises(InvariantViolation, match="cycle ledger"):
            with obs_runtime.observe("tamper") as o:
                sim, _machine, _clients, _senders = build_stream_rig(
                    linux_up_config(), OptimizationConfig.optimized()
                )
                sim.run(until=0.01)
                key = next(iter(o.ledger.cells))
                o.ledger.cells[key][0] += UNIT_SCALE  # steal one cycle
                sim.run(until=0.05)
    finally:
        obs.reset()
        uninstall_checker(SimSanitizer)


def test_verify_reports_shadow_divergence():
    led, machine = _run_rig_with_ledger(
        linux_up_config(), OptimizationConfig.optimized(), until=0.02
    )
    cpu = machine.cpu
    led.cpu_float[cpu.name] += 1.0
    problems = led.verify([cpu])
    assert problems and "busy shadow" in problems[0]


# ----------------------------------------------------------------------
# 2. behaviour neutrality
# ----------------------------------------------------------------------
def _run_quick_ledgered(experiment_id: str):
    obs.configure(ledger=True)
    try:
        ledgered = run_experiment(experiment_id, quick=True, observed=True)
        done = obs.drain_completed()
    finally:
        obs.reset()
    return ledgered, done


def test_figure07_rows_bit_identical_with_ledger_on():
    ledgered, done = _run_quick_ledgered("figure7")
    assert_rows_match_pin("figure7", ledgered, "the cycle ledger")
    ledgers = [o.ledger for o in done if o.ledger is not None]
    assert len(ledgers) >= 6
    for led in ledgers:
        assert check_ledger_document(led.to_json()) == []


def test_figure12_rows_bit_identical_with_ledger_on():
    ledgered, done = _run_quick_ledgered("figure12")
    assert_rows_match_pin("figure12", ledgered, "the cycle ledger")
    assert any(o.ledger is not None for o in done)


class _SimulatorCount:
    """A checker that checks nothing: its install's ``observers`` count the
    simulators built while it is installed."""

    def __init__(self, sim):
        pass

    def watch_machine(self, machine):
        pass


def _one_point(experiment_id):
    """(point function, point, rigs it builds) of the one sweep point run of
    an experiment with its own measurement loop."""
    from repro.experiments import extension_resilience, extension_zero_copy

    if experiment_id == "extension_resilience":
        point = ("reorder_storm", 0.3, True, extension_resilience.QUICK_RECOVERY_HORIZON)
        return extension_resilience._measure_point, point, len(extension_resilience.MODES)
    return extension_zero_copy._measure_point, ("up", 16 << 20, 1, True, 0.05, 0.05), 1


@pytest.mark.parametrize("experiment_id", [
    "table1", "extension_itr", "extension_bidirectional",
    "extension_load_sensitivity", "extension_tso",
    "extension_resilience", "extension_zero_copy",
])
def test_every_rig_is_built_inside_one_observation(experiment_id):
    """Every rig of the experiments that build their own (request/response,
    paced, bidirectional, TSO) and of the two custom measurement loops
    (resilience recovery bins, zero-copy modes, one point each) is built
    inside one observation: one completed observation per simulator, each
    with ledger cells, and rows unchanged by the ledger."""
    sweep_point = experiment_id in ("extension_resilience", "extension_zero_copy")
    if sweep_point:
        measure_point, point, rigs = _one_point(experiment_id)
        plain = measure_point(point)
    install = install_checker(_SimulatorCount)
    obs.configure(ledger=True)
    try:
        if sweep_point:
            ledgered = measure_point(point)
        else:
            result = run_experiment(experiment_id, quick=True, observed=True)
        done = obs.drain_completed()
        assert len(done) == len(install.observers) > 0
        assert all(o.ledger.cells for o in done)
        if sweep_point:
            assert len(done) == rigs
            assert ledgered == plain
        else:
            assert_rows_match_pin(experiment_id, result, "the cycle ledger")
    finally:
        obs.reset()
        uninstall_checker(_SimulatorCount)


def test_stream_measured_fields_identical_with_ledger_on():
    def point():
        return run_stream_experiment(
            linux_up_config(), OptimizationConfig.optimized(),
            duration=0.05, warmup=0.05,
        )

    plain = point()
    obs.configure(ledger=True)
    try:
        ledgered = point()
    finally:
        obs.reset()
    # The ledger schedules nothing: every field survives, events included.
    for name in (
        "system", "optimized", "throughput_mbps", "cpu_utilization",
        "bytes_received", "network_packets", "host_packets", "acks_sent",
        "cycles_per_packet", "breakdown", "events_fired",
    ):
        assert getattr(plain, name) == getattr(ledgered, name), name


# ----------------------------------------------------------------------
# 3. exact differential profiling
# ----------------------------------------------------------------------
def _ledger_doc(opt, until=0.05):
    led, _machine = _run_rig_with_ledger(linux_up_config(), opt, until=until)
    obs.reset()
    return led.to_json()


def test_self_diff_is_empty():
    doc = _ledger_doc(OptimizationConfig.optimized())
    diff = diff_ledgers(doc, doc)
    assert diff.is_empty()
    assert diff.problems == []
    assert "no differences" in diff.format_report()


def test_diff_reconciles_and_signs_match_profiler():
    """Optimized-vs-baseline per-category deltas: the diff's sign for every
    category must agree with the profiler totals the rigs measured."""
    base = _ledgered_stream(
        "base", config=linux_up_config(), opt=OptimizationConfig.baseline()
    )
    opt = _ledgered_stream(
        "opt", config=linux_up_config(), opt=OptimizationConfig.optimized()
    )
    machine_b, machine_o = base.machine, opt.machine
    a, b = base.obs.ledger.to_json(), opt.obs.ledger.to_json()
    diff = diff_ledgers(a, b)
    assert diff.problems == []
    assert not diff.is_empty()
    # Marginal sums reconcile exactly with the total delta (also asserted
    # internally; re-derive one dimension here from the raw documents).
    ma, mb = marginal(a, "category"), marginal(b, "category")
    assert sum(mb.values()) - sum(ma.values()) == diff.total_units
    # Per-category signs agree with the profilers' own whole-run totals.
    prof_a = machine_b.cpu.profiler.cycles
    prof_b = machine_o.cpu.profiler.cycles
    for cat in set(prof_a) | set(prof_b):
        prof_delta = prof_b.get(cat, 0.0) - prof_a.get(cat, 0.0)
        led_delta = mb.get(cat, 0) - ma.get(cat, 0)
        if abs(prof_delta) > 1.0:
            assert (led_delta > 0) == (prof_delta > 0), cat
    # The aggregation category only exists optimized: positive delta.
    cats = {value: (a_units, b_units) for value, a_units, b_units in diff.dims["category"]}
    aggr_a, aggr_b = cats["aggr"]
    assert aggr_a == 0 and aggr_b > 0


def test_diff_per_packet_uses_measure_phase():
    obs.configure(ledger=True)
    a = run_stream_experiment(
        linux_up_config(), OptimizationConfig.baseline(),
        duration=0.05, warmup=0.05,
    )
    b = run_stream_experiment(
        linux_up_config(), OptimizationConfig.optimized(),
        duration=0.05, warmup=0.05,
    )
    done = obs.drain_completed()
    obs.reset()
    diff = diff_ledgers(done[0].ledger.to_json(), done[1].ledger.to_json())
    assert diff.per_packet
    # The per-packet normalizers are the profiler's measurement-window
    # frame counts the workload stamped into ledger meta.
    assert done[0].ledger.meta["measure"]["network_packets"] == a.network_packets
    assert done[1].ledger.meta["measure"]["network_packets"] == b.network_packets


# ----------------------------------------------------------------------
# 4. deterministic artifacts + schema checks
# ----------------------------------------------------------------------
def test_seeded_rerun_exports_byte_identical():
    blobs = []
    for _ in range(2):
        doc = _ledger_doc(OptimizationConfig.optimized())
        flame = collapsed_text([doc])
        blobs.append(json.dumps(doc, sort_keys=True) + "\n===\n" + flame)
    assert blobs[0] == blobs[1]


def test_ledger_and_flame_validate_via_cli(tmp_path, capsys):
    from repro.obs.__main__ import main

    doc = _ledger_doc(OptimizationConfig.optimized(), until=0.03)
    led_path = tmp_path / "ledger.json"
    led_path.write_text(json.dumps(doc))
    flame_path = tmp_path / "run.flame"
    flame_path.write_text(collapsed_text([doc]))
    assert main(["check", str(led_path), str(flame_path)]) == 0
    out = capsys.readouterr().out
    assert "cycle-ledger: ok" in out
    assert "flame: ok" in out


def test_check_flags_corrupt_ledger_and_flame():
    doc = _ledger_doc(OptimizationConfig.optimized(), until=0.03)
    assert doc["schema"] == SCHEMA
    tampered = json.loads(json.dumps(doc))
    tampered["totals"]["units"] += 1
    assert check_ledger_document(tampered)
    assert check_flame_text("cpu0;driver notanumber\n")
    assert check_flame_text(";; 12\n")
    assert check_flame_text("cpu0;driver 12\n") == []


def test_cli_diff_subcommand_and_expect_empty(tmp_path, capsys):
    from repro.obs.__main__ import main

    a = _ledger_doc(OptimizationConfig.baseline(), until=0.03)
    b = _ledger_doc(OptimizationConfig.optimized(), until=0.03)
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps({"runs": [{"label": "A", "ledger": a}]}))
    pb.write_text(json.dumps({"runs": [{"label": "B", "ledger": b}]}))
    assert main(["diff", str(pa), str(pa), "--expect-empty"]) == 0
    assert main(["diff", str(pa), str(pb)]) == 0
    assert main(["diff", str(pa), str(pb), "--expect-empty"]) == 1
    out = capsys.readouterr().out
    assert "by category" in out
    assert "FAIL: expected identical ledgers" in out


def test_dropped_records_warn_loudly_but_do_not_fail(tmp_path, capsys):
    from repro.obs.__main__ import main

    cap = tmp_path / "capture.json"
    cap.write_text(json.dumps(
        {"capture": "c", "records_dropped": 3, "records": [{"time": 0.0}]}
    ))
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(
        {"runs": [{"label": "r", "trace": {"span_counts": {}, "events_dropped": 7}}]}
    ))
    assert main(["check", str(cap), str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out
    assert "dropped 3 record(s)" in out
    assert "dropped 7 event(s)" in out


def test_flame_stage_frames_expand():
    doc = _ledger_doc(OptimizationConfig.optimized(), until=0.03)
    text = collapsed_text([doc])
    assert check_flame_text(text) == []
    # The stage path contributes one frame per stage, category is the leaf.
    assert any(
        "softirq;aggr;tcp_rx" in line for line in text.splitlines()
    )


# ----------------------------------------------------------------------
# quantiles + dashboard
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_log2_quantile_interpolates_deterministically(self):
        from repro.obs import Log2Histogram

        h = Log2Histogram("h")
        for v in (0, 0, 1, 2, 3, 4, 5, 6, 7, 100):
            h.observe(v)
        assert h.quantile(0.0) == h.quantile(0.05)  # both rank 1
        # Counts by bit_length: [2, 1, 2, 4, 0, 0, 0, 1].  p50 -> rank 5,
        # which is the 2nd of 2 samples in bucket [2, 4): interpolates to 4.
        assert h.quantile(0.50) == 2.0 + (4.0 - 2.0) * (2 / 2)
        # p99 -> rank 10, the lone [64, 128) sample, interpolated at 1/1.
        assert h.quantile(0.99) == 128.0
        assert h.quantile(1.0) == 128.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_histogram_quantile_is_zero(self):
        from repro.obs import Log2Histogram

        assert Log2Histogram("h").quantile(0.5) == 0.0

    def test_tracer_latency_quantiles(self):
        from repro.obs import Stage, Tracer

        tr = Tracer()
        for us in (1, 2, 3, 4):
            tr.event(Stage.SOFTIRQ, ts=0.0, dur=us * 1e-6)
        q = tr.latency_quantiles()
        row = q[Stage.SOFTIRQ]
        assert row["samples"] == 4
        assert 0 < row["p50"] <= row["p90"] <= row["p99"]

    def test_dashboard_renders_latency_block(self):
        obs.configure(trace=True, sample_interval=0.005)
        result = run_stream_experiment(
            linux_up_config(), OptimizationConfig.optimized(),
            duration=0.03, warmup=0.02,
        )
        done = obs.drain_completed()
        obs.reset()
        assert result.series is not None
        o = done[0]
        text = o.sampler.render_dashboard(latency=o.tracer.latency_quantiles())
        assert "stage sojourn latency (ns)" in text
        assert "p99" in text
