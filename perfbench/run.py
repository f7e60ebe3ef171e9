"""Host-time benchmark of the TCP receive simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every repetition runs in a fresh,
single-threaded worker process (``worker.py``), one at a time, and each
simulation point it runs is one operation, checked against its pinned
fingerprint (``pins.json``) or, for a seed that is not pinned, against the
stream invariants and the other repetitions of the same seed.

``--trace 0`` repeats the workload with tracing off until ``--seconds``
have passed, alternating workers between two CPUs.  It reports
``wall_s`` and ``setup_s`` in reference seconds -- host time divided by
the time of a fixed reference workload measured beside it, times that
workload's nominal time (``refsim``) -- and the median ``peak_rss_mb``;
extra set-up-only workers add ``setup_s`` samples.  ``--trace 1`` makes
one untraced and two traced
runs and reports each layer's calls, calls per frame, self time and
self-time share, the counters, and the tracing overhead; it checks that the
traced fingerprints equal the untraced ones, that call counts repeat
exactly, and that each layer is exercised or bypassed as ``bench_spec``
predicts.

The last line of standard output is the result object; the line before
it describes the run.  Exits non-zero without a result when the
simulator source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench_spec import BYPASS, COUNTERS, DEFAULT_SEEDS, EXERCISE, LAYERS, WORKLOADS
from refsim import PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

#: Workers alternate between (at most) two CPUs, each pinned to one, so a
#: slice and its probe run on the same CPU.
CPUS = sorted(os.sched_getaffinity(0))[:2]
#: Repetitions and set-up-only workers per CPU.
MIN_REPS = 2
SETUP_WORKERS = 2
#: Stop starting workers once this much of the 180 s run limit is gone.
RUN_LIMIT_S = 150.0


class WorkerFailed(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: Optional[int], cpu: Optional[int] = None) -> dict:
    """Run one worker to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_LIMIT_S
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_key(workload: str, seed: Optional[int]) -> str:
    return "-" if DEFAULT_SEEDS[workload] is None else str(seed)


def load_pins(workload: str, seed: Optional[int]) -> Optional[Dict[str, dict]]:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    return pins.get(workload, {}).get(seed_key(workload, seed))


class Checker:
    """Counts operations and failures across a run's repetitions."""

    def __init__(self, pinned: Optional[Dict[str, dict]]):
        self.pinned = pinned
        #: First fingerprint seen per point: the reference for later
        #: repetitions when the seed is not pinned.
        self.first: Dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, points: Dict[str, dict], tag: str) -> None:
        for label, fp in sorted(points.items()):
            self.attempted += 1
            problem = None
            if "error" in fp:
                problem = f"raised {fp['error']}"
            elif self.pinned is not None:
                want = self.pinned.get(label)
                if fp != want:
                    problem = f"differs from its pin:\n    pin {want}\n    got {fp}"
            elif not fp["intact"]:
                problem = "stream not intact"
            elif self.first.setdefault(label, fp) != fp:
                problem = f"differs from the first run:\n    first {self.first[label]}\n    got   {fp}"
            if problem is not None:
                self.failed += 1
                print(f"FAILED {tag} {label}: {problem}", file=sys.stderr)
        if self.pinned is not None:
            for label in sorted(set(self.pinned) - set(points)):
                self.attempted += 1
                self.failed += 1
                print(f"FAILED {tag} {label}: pinned point missing", file=sys.stderr)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_wall(reps: List[dict]) -> float:
    """Simulation time in reference seconds (see ``refsim``).

    Every repetition runs the same slices of simulated time, each some
    tens of milliseconds of host time and each just after one reference
    probe.  A slice's cost is the median over repetitions of its time over
    its probe's; the sum over slices, times ``PROBE_S``, is the run's
    wall time on a host where the probe takes ``PROBE_S``.
    """
    columns = zip(*(rep["slices"] for rep in reps))
    return PROBE_S * sum(statistics.median(t / p for t, p in column) for column in columns)


def run_untraced(workload: str, seed: Optional[int], seconds: float, checker: Checker):
    start = time.perf_counter()
    setups: List[dict] = []
    for i in range(SETUP_WORKERS * len(CPUS)):
        setups.append(spawn("setup", workload, seed, CPUS[i % len(CPUS)]))
    reps: List[dict] = []
    while len(reps) < MIN_REPS * len(CPUS) or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        if reps and elapsed + (elapsed / len(reps)) > RUN_LIMIT_S:
            break
        rep = spawn("run", workload, seed, CPUS[len(reps) % len(CPUS)])
        checker.check(rep["points"], f"rep{len(reps)}")
        reps.append(rep)
        setups.append(rep)
    metrics = {
        "wall_s": metric(reference_wall(reps), "s"),
        "setup_s": metric(
            PROBE_S * statistics.median(s["setup_s"] / s["setup_probe_s"] for s in setups), "s"
        ),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    detail = {
        "reps": len(reps),
        "slices": len(reps[0]["slices"]),
        "host_wall_s": [r["wall_s"] for r in reps],
        "host_setup_s": [s["setup_s"] for s in setups],
        "probe_s": statistics.median(p for r in reps for _, p in r["slices"]),
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return metrics, detail, []


def run_traced(workload: str, seed: Optional[int], checker: Checker):
    plain = spawn("run", workload, seed)
    checker.check(plain["points"], "untraced")
    traced = [spawn("trace", workload, seed) for _ in range(2)]
    problems = []
    for i, run in enumerate(traced):
        checker.check(run["points"], f"traced{i}")
        if run["points"] != plain["points"]:
            problems.append(f"traced run {i} fingerprints differ from the untraced run")
    first, second = traced
    if first["calls"] != second["calls"] or first["frames"] != second["frames"]:
        diff = {l: (first["calls"][l], second["calls"][l])
                for l in LAYERS if first["calls"][l] != second["calls"][l]}
        problems.append(f"call counts differ between traced runs: {diff}")
    for layer in EXERCISE[workload]:
        if first["calls"][layer] == 0:
            problems.append(f"layer {layer} was predicted to run but made no calls")
    for layer in BYPASS[workload]:
        if first["calls"][layer] != 0:
            problems.append(
                f"layer {layer} was predicted to be bypassed but made "
                f"{first['calls'][layer]} calls"
            )

    traced_wall = statistics.median(run["wall_s"] for run in traced)
    frames = max(1, first["frames"])
    metrics = {}
    for layer in LAYERS:
        self_s = statistics.median(run["self_s"][layer] for run in traced)
        metrics[f"{layer}.calls"] = metric(first["calls"][layer], "count")
        metrics[f"{layer}.calls_per_frame"] = metric(first["calls"][layer] / frames, "calls/frame")
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.self_share"] = metric(self_s / traced_wall, "fraction")
    units = {
        "sim.events_per_frame": "events/frame",
        "core.aggregation.degree": "pkts/host_pkt",
        "buffers.slab_recycled_frac": "fraction",
    }
    for name in COUNTERS:
        metrics[name] = metric(first["counters"][name], units.get(name, "count"))
    metrics["trace_overhead"] = metric(traced_wall / plain["wall_s"], "ratio")
    detail = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": [run["wall_s"] for run in traced],
        "frames": first["frames"],
    }
    return metrics, detail, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    workload = args.workload
    seed = args.seed if args.seed is not None else DEFAULT_SEEDS[workload]
    if DEFAULT_SEEDS[workload] is None:
        seed = None  # fixed inputs: the seed selects nothing
    checker = Checker(load_pins(workload, seed))

    try:
        spawn("setup", workload, seed)  # fills the bytecode cache; not timed
        if args.trace:
            metrics, detail, problems = run_traced(workload, seed, checker)
        else:
            metrics, detail, problems = run_untraced(workload, seed, args.seconds, checker)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)

    print(json.dumps({"run": {
        "workload": workload,
        "seed": seed,
        "pinned": checker.pinned is not None,
        "ops": f"{checker.failed}/{checker.attempted} failed",
        "tracing": bool(args.trace),
        "how": "fresh single-threaded process per repetition, one at a time",
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        **detail,
    }}))
    print(json.dumps({
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
