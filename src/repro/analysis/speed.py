"""Simulator performance measurement: events/sec and simulated packets/sec.

The science experiments measure the *simulated machine* (cycles/packet,
Mb/s).  This module measures the *simulator itself*: how many scheduler
events and simulated wire packets it burns through per wall-clock second.
That is the number the fast-path work (tuple heap entries, template
packets, interned profiler categories) moves, and the one the
``benchmarks/test_bench_speed.py`` harness tracks across PRs via the
repo's ``BENCH_*.json`` perf trajectory.

The standard probe is the Figure 7 workload mix (UP / SMP / Xen, baseline
and optimized) at quick fidelity — it exercises every hot subsystem: the
event heap, both driver receive paths, aggregation, ACK offload, and the
Xen bridge.

Run as a module for the perf-regression observatory::

    python -m repro.analysis.speed            # measure + print the report
    python -m repro.analysis.speed --record   # append to BENCH_history.json
    python -m repro.analysis.speed --compare  # per-point deltas vs the last
                                              # recorded history entry, and
                                              # the 1k/10k scale points vs
                                              # BENCH_speed.json

``BENCH_history.json`` accumulates one entry per recording (git SHA +
per-point events/sec), so a perf regression shows up as a per-point delta
against the previous PR's entry, not just a pass/fail gate.
"""

from __future__ import annotations

# simlint: file-allow(wall-clock) -- measuring the simulator's wall speed is
# this module's entire purpose; nothing here feeds back into simulation state.
import gc
import json
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.config import OptimizationConfig
from repro.experiments.base import window
from repro.host.configs import linux_smp_config, linux_up_config, xen_config
from repro.workloads.stream import run_stream_experiment


def measure_stream_speed(
    config,
    opt: OptimizationConfig,
    duration: float,
    warmup: float,
    queues: int = 1,
) -> Dict[str, float]:
    """Time one streaming simulation; report wall seconds, events, packets."""
    t0 = time.perf_counter()
    result = run_stream_experiment(
        config, opt, duration=duration, warmup=warmup, queues=queues
    )
    wall = time.perf_counter() - t0
    return {
        "system": result.system,
        "optimized": result.optimized,
        "wall_s": wall,
        "events_fired": result.events_fired,
        "events_per_sec": result.events_fired / wall if wall > 0 else 0.0,
        "network_packets": result.network_packets,
        "throughput_mbps": result.throughput_mbps,
    }


def measure_figure07_speed(quick: bool = True) -> Dict[str, object]:
    """Run the Figure 7 workload mix and report simulator speed.

    Returns a JSON-ready dict with per-point detail and aggregate
    ``events_per_sec`` / ``packets_per_sec`` over the whole mix.  The
    ``events_fired`` totals are deterministic (same seed, same engine
    semantics); only the wall-clock figures vary run to run.

    A 4-queue multi-queue rig rides along: it stresses the per-CPU
    receive paths and the RSS steering layer, which none of the classic
    points touch.
    """
    duration, warmup = window(quick)
    points: List[Dict[str, float]] = []
    for config_fn in (linux_up_config, linux_smp_config, xen_config):
        for opt in (OptimizationConfig.baseline(), OptimizationConfig.optimized()):
            points.append(
                measure_stream_speed(config_fn(), opt, duration=duration, warmup=warmup)
            )
    points.append(
        measure_stream_speed(
            linux_smp_config(), OptimizationConfig.optimized(),
            duration=duration, warmup=warmup, queues=4,
        )
    )
    wall = sum(p["wall_s"] for p in points)
    events = sum(p["events_fired"] for p in points)
    packets = sum(p["network_packets"] for p in points)
    return {
        "probe": "figure7",
        "quick": quick,
        "wall_s": wall,
        "events_fired": events,
        "network_packets": packets,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "packets_per_sec": packets / wall if wall > 0 else 0.0,
        "points": points,
    }


def measure_obs_overhead(quick: bool = True) -> Dict[str, object]:
    """Measure what :mod:`repro.obs` costs — off (should be ~free) and on.

    Runs the UP optimized streaming point three ways: obs never imported
    into the hot path beyond the disabled-by-default guards (``off``),
    with full tracing + metrics + sampling enabled (``on``), and with only
    the cycle ledger enabled (``ledger_on``).  Reports wall seconds for
    each plus behaviour-neutrality verdicts: with tracing on, every
    measured field except ``events_fired``/``series`` (the sampler adds
    scheduler events) must be bit-identical; with the ledger on — which
    schedules nothing — *every* field including ``events_fired`` must be.
    The CI speed harness asserts the ``off`` path (the ledger-off default)
    stays within the BENCH_speed envelope; ``on``/``ledger_on`` are
    informational — attribution is allowed to cost wall time, never
    behaviour.
    """
    from repro import obs

    duration, warmup = window(quick)
    config = linux_up_config()
    opt = OptimizationConfig.optimized()

    obs.reset()
    off = measure_stream_speed(config, opt, duration=duration, warmup=warmup)

    obs.configure(trace=True, metrics=True, sample_interval=0.005)
    try:
        on = measure_stream_speed(config, opt, duration=duration, warmup=warmup)
        observations = obs.drain_completed()
    finally:
        obs.reset()

    obs.configure(ledger=True)
    try:
        ledger_on = measure_stream_speed(
            config, opt, duration=duration, warmup=warmup
        )
        ledger_obs = obs.drain_completed()
    finally:
        obs.reset()

    neutral_keys = [
        k for k in off if k not in ("wall_s", "events_fired", "events_per_sec")
    ]
    ledger_neutral_keys = [
        k for k in off if k not in ("wall_s", "events_per_sec")
    ]
    spans = sum(
        len(o.tracer) for o in observations if o.tracer is not None
    )
    ledger_cells = sum(
        len(o.ledger.cells) for o in ledger_obs if o.ledger is not None
    )
    return {
        "probe": "obs-overhead",
        "quick": quick,
        "off": off,
        "on": on,
        "ledger_on": ledger_on,
        "overhead_ratio": on["wall_s"] / off["wall_s"] if off["wall_s"] > 0 else 0.0,
        "ledger_overhead_ratio": (
            ledger_on["wall_s"] / off["wall_s"] if off["wall_s"] > 0 else 0.0
        ),
        "trace_events": spans,
        "ledger_cells": ledger_cells,
        "behavior_neutral": all(off[k] == on[k] for k in neutral_keys),
        "ledger_behavior_neutral": all(
            off[k] == ledger_on[k] for k in ledger_neutral_keys
        ),
    }


def measure_racecheck_overhead(quick: bool = True) -> Dict[str, object]:
    """Measure what :mod:`repro.analysis.racecheck` costs — off and on.

    Runs the 4-queue multi-queue streaming point (the only rig with
    cross-CPU ownership to check) twice: with no checker installed, then
    with the race detector watching every queue, socket, and softirq port.
    Unlike the observability probe, *every* measured field must be
    bit-identical — the checker consumes no cycles and schedules nothing,
    so even ``events_fired`` is part of the neutrality verdict.  The
    ``on`` wall time is informational: checking is allowed to cost wall
    seconds, never behaviour.
    """
    from repro.analysis import racecheck

    duration, warmup = window(quick)
    config = linux_smp_config()
    opt = OptimizationConfig.optimized()

    off = measure_stream_speed(config, opt, duration=duration, warmup=warmup, queues=4)
    handle = racecheck.install()
    try:
        on = measure_stream_speed(config, opt, duration=duration, warmup=warmup, queues=4)
        stats = [c.stats for c in handle.checkers if c.stats.accesses_noted]
    finally:
        racecheck.uninstall(handle)

    neutral_keys = [k for k in off if k not in ("wall_s", "events_per_sec")]
    return {
        "probe": "racecheck-overhead",
        "quick": quick,
        "off": off,
        "on": on,
        "overhead_ratio": on["wall_s"] / off["wall_s"] if off["wall_s"] > 0 else 0.0,
        "accesses_noted": sum(s.accesses_noted for s in stats),
        "foreign_accesses": sum(s.foreign_accesses for s in stats),
        "objects_tagged": sum(s.objects_tagged for s in stats),
        "behavior_neutral": all(off[k] == on[k] for k in neutral_keys),
    }


def measure_many_conn_speed(
    n_connections: int,
    duration: float = 0.05,
    warmup: float = 0.03,
    arrival_rate_hz: float = 2000.0,
) -> Dict[str, object]:
    """Time the many-connection scale workload (1k/10k BENCH points).

    Reports wall seconds, fired events, per-point ``events_per_sec``, the
    slab's ``allocations_saved`` counter, and ``objects_per_endpoint`` (see
    :func:`objects_per_endpoint`, read around the timed run).  The workload
    (population, elephant/mice mix, Poisson churn) is fully seeded, so
    ``events_fired``, ``transactions`` and ``allocations_saved`` are
    deterministic, and so, for a given Python version, is
    ``objects_per_endpoint`` to within about ten objects (0.01% at 1k): the
    first run in a process also fills process-wide caches such as enum
    flag combinations and struct formats.  Only the wall figures vary run
    to run.
    """
    from repro.workloads.many import ManyConnWorkload, run_many_connection_rig

    wl = ManyConnWorkload(
        n_connections=n_connections, arrival_rate_hz=arrival_rate_hz
    )
    gc.collect()
    objects_before = len(gc.get_objects())
    t0 = time.perf_counter()
    result, rig = run_many_connection_rig(
        linux_up_config(), OptimizationConfig.optimized(), wl,
        duration=duration, warmup=warmup,
    )
    wall = time.perf_counter() - t0
    return {
        "probe": "many-conn",
        "system": result.system,
        "optimized": result.optimized,
        "n_connections": n_connections,
        "arrival_rate_hz": arrival_rate_hz,
        "wall_s": wall,
        "events_fired": result.events_fired,
        "events_per_sec": result.events_fired / wall if wall > 0 else 0.0,
        "transactions": result.transactions,
        "throughput_mbps": result.throughput_mbps,
        "connections_opened": result.connections_opened,
        "connections_closed": result.connections_closed,
        "allocations_saved": result.allocations_saved,
        "objects_per_endpoint": objects_per_endpoint(rig, objects_before),
    }


def objects_per_endpoint(rig, objects_before: int) -> float:
    """GC-tracked objects a many-connection ``rig`` holds per connection
    endpoint.

    ``objects_before`` is ``len(gc.get_objects())`` after a full collection,
    taken before the rig was built; the count after another full collection
    minus it is divided by the connection endpoints (both ends) alive now.
    It is what the cyclic collector's full passes scan per endpoint.
    """
    _sim, machine, clients, _driver = rig
    gc.collect()
    endpoints = len(machine.kernel.connections) + sum(len(c.connections) for c in clients)
    return (len(gc.get_objects()) - objects_before) / endpoints


def measure_scale_points() -> Dict[str, Dict[str, object]]:
    """The 1k and 10k many-connection points of BENCH_speed.json's
    ``scale`` section."""
    return {
        "1k": measure_many_conn_speed(1000),
        "10k": measure_many_conn_speed(10_000),
    }


def measure_slab_savings(quick: bool = True) -> Dict[str, object]:
    """Report what the packet slab recycles on the standard streaming point.

    Builds the UP-optimized streaming rig directly (the slab counters live
    on the machine, which ``run_stream_experiment`` does not return) and
    reads the freelist counters after the run.  ``allocations_saved`` is
    deterministic and must be > 0 whenever recycling is enabled — the bench
    harness asserts it; a zero means the slab was silently disconnected.
    """
    from repro.workloads.stream import build_stream_rig

    duration, warmup = window(quick)
    t0 = time.perf_counter()
    sim, machine, clients, senders = build_stream_rig(
        linux_up_config(), OptimizationConfig.optimized()
    )
    sim.run(until=warmup + duration)
    wall = time.perf_counter() - t0
    slab = machine.packet_slab
    report: Dict[str, object] = {
        "probe": "slab-savings",
        "quick": quick,
        "wall_s": wall,
        "events_fired": sim.events_fired,
        "slab_enabled": slab is not None,
    }
    if slab is not None:
        report.update(
            allocations_saved=slab.allocations_saved,
            released=slab.released,
            recycled=slab.recycled,
            refused=slab.refused,
            overflow=slab.overflow,
            misses=slab.misses,
            free_len=len(slab.free),
        )
    return report


def measure_zerocopy_speed(quick: bool = True) -> Dict[str, object]:
    """Time the memory-hierarchy copy-vs-zcrx probe and report its physics.

    Runs the UP rig of ``extension_zero_copy`` at a sub-LLC and a
    past-LLC working set in both receive modes.  Everything except the
    wall figures is deterministic; the bench harness strict-gates the
    *structure* of the result — copy cycles/byte must exceed zcrx
    cycles/byte at the large working set (the crossover), and zcrx
    cycles/byte must be working-set independent — because those hold on
    any machine, unlike wall seconds.
    """
    from repro.experiments.extension_zero_copy import measure_mode

    duration, warmup = window(quick)
    small_ws = 256 << 10
    large_ws = 16 << 20
    t0 = time.perf_counter()
    points = {
        "small_copy": measure_mode("up", small_ws, 1, False, duration, warmup),
        "small_zcrx": measure_mode("up", small_ws, 1, True, duration, warmup),
        "large_copy": measure_mode("up", large_ws, 1, False, duration, warmup),
        "large_zcrx": measure_mode("up", large_ws, 1, True, duration, warmup),
    }
    wall = time.perf_counter() - t0
    return {
        "probe": "zerocopy",
        "quick": quick,
        "wall_s": wall,
        "small_working_set_bytes": small_ws,
        "large_working_set_bytes": large_ws,
        "points": points,
        "copy_cold_penalty_ratio": (
            points["large_copy"]["cyc_per_byte"]
            / points["small_copy"]["cyc_per_byte"]
            if points["small_copy"]["cyc_per_byte"] > 0
            else 0.0
        ),
    }


def format_speed_report(report: Dict[str, object]) -> str:
    """Human-readable one-screen rendering of a speed report."""
    lines = [
        f"simulator speed probe: {report['probe']}"
        f" ({'quick' if report['quick'] else 'full'} fidelity)",
        f"  wall time        : {report['wall_s']:.2f} s",
        f"  events fired     : {report['events_fired']:,}",
        f"  simulated packets: {report['network_packets']:,}",
        f"  events/sec       : {report['events_per_sec']:,.0f}",
        f"  packets/sec      : {report['packets_per_sec']:,.0f}",
    ]
    for p in report["points"]:
        mode = "optimized" if p["optimized"] else "baseline"
        lines.append(
            f"    {p['system']:<12} {mode:<9} {p['wall_s']:6.2f} s"
            f"  {p['events_fired']:>9,} events"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# perf-regression observatory: BENCH_history.json
# ----------------------------------------------------------------------
_REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_HISTORY = _REPO_ROOT / "BENCH_history.json"
DEFAULT_BENCH = _REPO_ROOT / "BENCH_speed.json"


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=_REPO_ROOT, timeout=10,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_history(report: Dict[str, object], path=None) -> dict:
    """Append one figure7-mix speed report to the perf history.

    Each entry carries the git SHA it was measured at plus the per-point
    wall/throughput detail, so the trajectory is a list of (commit,
    points) the ``--compare`` view diffs pairwise.
    """
    path = Path(path) if path is not None else DEFAULT_HISTORY
    history = json.loads(path.read_text()) if path.exists() else []
    entry = {
        "sha": _git_sha(),
        "probe": report["probe"],
        "quick": report["quick"],
        "wall_s": report["wall_s"],
        "events_fired": report["events_fired"],
        "events_per_sec": report["events_per_sec"],
        "packets_per_sec": report["packets_per_sec"],
        "points": report["points"],
    }
    history.append(entry)
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return entry


def compare_points(
    baseline_points: List[dict], current_points: List[dict]
) -> List[dict]:
    """Per-point deltas, keyed by (system, optimized).

    ``events_fired`` is deterministic: a changed count is flagged as a
    *semantic* change (the engine fired different events), which is a
    different failure class than a wall-clock slowdown.
    """
    base = {(p["system"], p["optimized"]): p for p in baseline_points}
    rows = []
    for p in current_points:
        key = (p["system"], p["optimized"])
        b = base.get(key)
        row = {
            "system": p["system"],
            "optimized": p["optimized"],
            "events_per_sec": p["events_per_sec"],
            "baseline_events_per_sec": b["events_per_sec"] if b else None,
            "delta_pct": (
                (p["events_per_sec"] / b["events_per_sec"] - 1.0) * 100.0
                if b and b["events_per_sec"] > 0 else None
            ),
            "events_fired_changed": (
                b is not None and p["events_fired"] != b["events_fired"]
            ),
        }
        rows.append(row)
    return rows


def format_compare(rows: List[dict], baseline_sha: str) -> str:
    lines = [f"per-point speed vs last history entry ({baseline_sha[:12]}):"]
    for row in rows:
        mode = "optimized" if row["optimized"] else "baseline"
        label = f"{row['system']} {mode}"
        if row["delta_pct"] is None:
            lines.append(f"  {label:<28} {row['events_per_sec']:>10,.0f} ev/s  (new point)")
            continue
        note = "  [events_fired CHANGED]" if row["events_fired_changed"] else ""
        lines.append(
            f"  {label:<28} {row['events_per_sec']:>10,.0f} ev/s  "
            f"{row['delta_pct']:+6.1f}% vs {row['baseline_events_per_sec']:,.0f}{note}"
        )
    return "\n".join(lines)


def compare_scale(baseline: Dict[str, dict], current: Dict[str, dict]) -> List[dict]:
    """Scale-point deltas, keyed by point name ("1k", "10k").

    Both compared figures are deterministic (``objects_per_endpoint`` to
    about 0.01% on one Python version, see :func:`measure_many_conn_speed`):
    a changed ``events_fired`` is a semantic change, a changed
    ``objects_per_endpoint`` a change in how much state each connection
    keeps.
    """
    rows = []
    for name, p in current.items():
        b = baseline.get(name)
        rows.append({
            "point": name,
            "events_fired": p["events_fired"],
            "events_fired_changed": b is not None and p["events_fired"] != b["events_fired"],
            "objects_per_endpoint": p["objects_per_endpoint"],
            "baseline_objects_per_endpoint": (
                b.get("objects_per_endpoint") if b is not None else None
            ),
        })
    return rows


def format_scale_compare(rows: List[dict]) -> str:
    lines = ["scale points vs BENCH_speed.json:"]
    for row in rows:
        base = row["baseline_objects_per_endpoint"]
        delta = "(no baseline)" if base is None else (
            f"{row['objects_per_endpoint'] - base:+.2f} vs {base:.2f}"
        )
        note = "  [events_fired CHANGED]" if row["events_fired_changed"] else ""
        lines.append(
            f"  many-conn {row['point']:<4} {row['events_fired']:>9,} events  "
            f"{row['objects_per_endpoint']:6.2f} objects/endpoint {delta}{note}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.analysis.speed")
    parser.add_argument(
        "--full", action="store_true", help="full measurement windows (default quick)"
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append this measurement to the history file",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="print per-point deltas against the last history entry",
    )
    parser.add_argument(
        "--history", metavar="PATH", default=None,
        help=f"history file (default {DEFAULT_HISTORY.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    report = measure_figure07_speed(quick=not args.full)
    print(format_speed_report(report))

    path = Path(args.history) if args.history else DEFAULT_HISTORY
    if args.compare:
        history = json.loads(path.read_text()) if path.exists() else []
        if not history:
            print(f"\nno history at {path}; run with --record first")
        else:
            last = history[-1]
            rows = compare_points(last["points"], report["points"])
            print()
            print(format_compare(rows, last.get("sha", "unknown")))
        bench = json.loads(DEFAULT_BENCH.read_text()) if DEFAULT_BENCH.exists() else {}
        print()
        print(format_scale_compare(compare_scale(bench.get("scale", {}), measure_scale_points())))
    if args.record:
        entry = append_history(report, path)
        print(f"\nrecorded {entry['sha'][:12]} in {path} "
              f"({report['events_per_sec']:,.0f} events/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
