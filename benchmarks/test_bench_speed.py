"""Benchmark: simulator speed itself (events/sec, simulated packets/sec).

Unlike the other benchmarks, which regenerate paper figures, this one
measures how fast the simulation kernel runs the Figure 7 workload mix.
Besides feeding ``benchmark.extra_info`` (so ``--benchmark-json`` carries
the numbers), it writes ``BENCH_speed.json`` at the repo root — the perf
trajectory that future fast-path PRs compare against.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis.speed import (
    append_history,
    format_speed_report,
    measure_figure07_speed,
    measure_obs_overhead,
    measure_racecheck_overhead,
    measure_scale_points,
    measure_slab_savings,
    measure_zerocopy_speed,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _merge_bench(update: dict) -> dict:
    """Read-modify-write BENCH_speed.json so the figure7 writer and the
    scale/slab writers can run in any order (or alone) without clobbering
    each other's sections."""
    out = _REPO_ROOT / "BENCH_speed.json"
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update(update)
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def test_simulator_speed(benchmark):
    report = benchmark.pedantic(
        measure_figure07_speed, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print()
    print(format_speed_report(report))

    benchmark.extra_info["events_per_sec"] = round(report["events_per_sec"])
    benchmark.extra_info["packets_per_sec"] = round(report["packets_per_sec"])
    benchmark.extra_info["events_fired"] = report["events_fired"]
    benchmark.extra_info["network_packets"] = report["network_packets"]

    _merge_bench(report)
    # One history entry per recording (git SHA + per-point detail) — the
    # perf-regression observatory `python -m repro.analysis.speed --compare`
    # diffs consecutive entries; CI uploads the file as an artifact.
    append_history(report)

    # The workload mix is deterministic: a changed event count means the
    # engine's semantics changed, not just its speed.
    assert report["events_fired"] > 0
    assert report["network_packets"] > 0


def test_obs_overhead(benchmark):
    """The observability layer must cost ~nothing when off, and never
    change behaviour when on.

    The deterministic asserts always run.  The wall-clock regression gate
    (disabled-path events/sec within 2% of the BENCH_speed.json trajectory
    point) only runs under ``REPRO_BENCH_STRICT=1`` — wall time on shared
    CI runners is too noisy to fail PRs on by default.
    """
    report = benchmark.pedantic(
        measure_obs_overhead, kwargs={"quick": True}, rounds=1, iterations=1
    )
    off, on = report["off"], report["on"]
    benchmark.extra_info["overhead_ratio"] = round(report["overhead_ratio"], 3)
    benchmark.extra_info["trace_events"] = report["trace_events"]
    benchmark.extra_info["ledger_overhead_ratio"] = round(
        report["ledger_overhead_ratio"], 3
    )
    print()
    print(
        f"obs overhead: off {off['wall_s']:.2f}s / on {on['wall_s']:.2f}s "
        f"(x{report['overhead_ratio']:.2f}), {report['trace_events']:,} spans; "
        f"ledger x{report['ledger_overhead_ratio']:.2f}, "
        f"{report['ledger_cells']:,} cells"
    )

    # Deterministic: instrumentation observes the run, it never steers it.
    # Every measured quantity except the sampler's own scheduler events is
    # bit-identical with tracing+metrics+sampling on.
    assert report["behavior_neutral"], (off, on)
    assert report["trace_events"] > 0
    # The ledger schedules nothing, so even events_fired must survive —
    # attribution is a strictly passive observer.
    assert report["ledger_behavior_neutral"], (off, report["ledger_on"])
    assert report["ledger_cells"] > 0

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        bench_path = _REPO_ROOT / "BENCH_speed.json"
        baseline = json.loads(bench_path.read_text())
        point = next(
            p for p in baseline["points"]
            if p["system"] == off["system"] and p["optimized"] == off["optimized"]
        )
        baseline_eps = point["events_fired"] / point["wall_s"]
        measured_eps = off["events_fired"] / off["wall_s"]
        assert measured_eps >= 0.98 * baseline_eps, (
            f"obs-off path regressed: {measured_eps:,.0f} events/s vs "
            f"baseline {baseline_eps:,.0f} (allowed -2%)"
        )


def test_racecheck_overhead(benchmark):
    """The cross-CPU race detector must never change behaviour when on.

    Stricter than the obs gate: the checker consumes no cycles and
    schedules nothing, so *every* measured field — ``events_fired``
    included — must be bit-identical with checking enabled.  The wall-time
    ratio is informational and rides into BENCH_speed.json under
    ``"racecheck"``.
    """
    report = benchmark.pedantic(
        measure_racecheck_overhead, kwargs={"quick": True}, rounds=1, iterations=1
    )
    off, on = report["off"], report["on"]
    benchmark.extra_info["overhead_ratio"] = round(report["overhead_ratio"], 3)
    benchmark.extra_info["accesses_noted"] = report["accesses_noted"]
    print()
    print(
        f"racecheck overhead: off {off['wall_s']:.2f}s / on {on['wall_s']:.2f}s "
        f"(x{report['overhead_ratio']:.2f}), {report['accesses_noted']:,} accesses "
        f"({report['foreign_accesses']:,} cross-CPU, all charged)"
    )

    assert report["behavior_neutral"], (off, on)
    # The probe runs RSS steering: cross-CPU traffic is guaranteed, so a
    # zero here means the checker silently disconnected from the rig.
    assert report["accesses_noted"] > 0
    assert report["foreign_accesses"] > 0
    assert report["objects_tagged"] > 0

    _merge_bench({"racecheck": report})


def test_many_connection_speed(benchmark):
    """Scale points: the many-connection workload at 1k and 10k residents.

    These points track the engine's scaling regime — per-connection
    timer churn, slab recycling, and batched link delivery all in play —
    where the classic Figure 7 mix only exercises up to 4 streams.  The
    workload is fully seeded, so ``events_fired`` / ``transactions`` /
    ``allocations_saved`` are deterministic, and ``objects_per_endpoint``
    is to about 0.01% on one Python version; wall figures carry the perf
    trajectory.  Written into BENCH_speed.json under ``"scale"``.
    """
    scale = benchmark.pedantic(measure_scale_points, rounds=1, iterations=1)
    for name, p in scale.items():
        print(
            f"\nscale {name}: wall={p['wall_s']:.2f}s "
            f"events={p['events_fired']:,} ({p['events_per_sec']:,.0f}/s) "
            f"tx={p['transactions']} slab_saved={p['allocations_saved']:,} "
            f"objects/endpoint={p['objects_per_endpoint']:.2f}"
        )
        benchmark.extra_info[f"{name}_events_per_sec"] = round(p["events_per_sec"])
        # The slab must actually be recycling at scale, and the seeded
        # workload must make visible progress.
        assert p["events_fired"] > 0
        assert p["transactions"] > 0
        assert p["allocations_saved"] > 0

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        bench_path = _REPO_ROOT / "BENCH_speed.json"
        if bench_path.exists():
            baseline = json.loads(bench_path.read_text()).get("scale", {})
            point = baseline.get("1k")
            if point is not None:
                measured = scale["1k"]["events_per_sec"]
                assert measured >= 0.98 * point["events_per_sec"], (
                    f"1k scale point regressed: {measured:,.0f} events/s vs "
                    f"baseline {point['events_per_sec']:,.0f} (allowed -2%)"
                )

    _merge_bench({"scale": scale})


def test_slab_structure(benchmark):
    """The packet slab must save allocations on the standard streaming
    point (``allocations_saved > 0`` — a zero means recycling silently
    disconnected), without perturbing the run (``events_fired`` must match
    the figure7 UP-optimized point exactly).
    """
    slab = benchmark.pedantic(
        measure_slab_savings, kwargs={"quick": True}, rounds=1, iterations=1
    )
    print(
        f"\nslab: saved={slab['allocations_saved']:,} "
        f"released={slab['released']:,} overflow={slab['overflow']:,}"
    )
    benchmark.extra_info["allocations_saved"] = slab["allocations_saved"]

    assert slab["slab_enabled"]
    assert slab["allocations_saved"] > 0
    assert slab["refused"] == 0
    # Recycling is allowed to cost or save wall time, never to perturb the
    # simulation: the slab probe runs the same UP-optimized point figure7
    # records, so its event count must be bit-identical.
    bench_path = _REPO_ROOT / "BENCH_speed.json"
    if bench_path.exists():
        points = json.loads(bench_path.read_text()).get("points", [])
        up_opt = next(
            (p for p in points
             if p["system"] == "Linux UP" and p["optimized"]), None
        )
        if up_opt is not None:
            assert slab["events_fired"] == up_opt["events_fired"]

    _merge_bench({"slab": slab})


def test_zerocopy_structure(benchmark):
    """Memory-hierarchy copy-vs-zcrx physics on the UP rig.

    The gates are *structural* — they hold on any machine, independent of
    wall speed, because every cycle charge is deterministic:

    * the copy must get more expensive per byte when the app working set
      outgrows the LLC (DDIO crossover), and the zero-copy charge must
      not care (page remapping never touches the payload);
    * at the large working set zcrx must win on cycles/byte — the
      mechanistic claim the extension experiment exists to demonstrate.

    Wall seconds ride into BENCH_speed.json under ``"zerocopy"`` as the
    perf-trajectory point; the strict gate re-asserts the structure from
    the written file so a hand-edited baseline fails loudly.
    """
    report = benchmark.pedantic(
        measure_zerocopy_speed, kwargs={"quick": True}, rounds=1, iterations=1
    )
    points = report["points"]
    print(
        f"\nzerocopy: copy {points['small_copy']['cyc_per_byte']:.2f} -> "
        f"{points['large_copy']['cyc_per_byte']:.2f} cyc/B across the LLC "
        f"boundary (x{report['copy_cold_penalty_ratio']:.2f}); "
        f"zcrx flat at {points['large_zcrx']['cyc_per_byte']:.2f} cyc/B"
    )
    benchmark.extra_info["copy_cold_penalty_ratio"] = round(
        report["copy_cold_penalty_ratio"], 3
    )

    assert points["large_copy"]["cyc_per_byte"] > points["small_copy"]["cyc_per_byte"]
    assert points["large_copy"]["cyc_per_byte"] > points["large_zcrx"]["cyc_per_byte"]
    assert points["large_zcrx"]["cyc_per_byte"] == points["small_zcrx"]["cyc_per_byte"]
    assert points["large_zcrx"]["mbps"] > points["large_copy"]["mbps"]

    merged = _merge_bench({"zerocopy": report})

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        stored = merged["zerocopy"]["points"]
        assert (
            stored["large_copy"]["cyc_per_byte"]
            > stored["large_zcrx"]["cyc_per_byte"]
        ), "stored zerocopy trajectory point lost the crossover"
