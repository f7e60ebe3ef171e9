"""One repetition of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --mode {setup,run,trace}

``setup`` imports the simulator and builds every point, then exits;
``run`` also runs the points with tracing off, in timed slices, each after
one ``refsim.probe()``; ``trace`` installs the layer tracer before building
and runs traced, unsliced.  Prints one JSON object.  ``run.py`` starts this
with ``PYTHONPATH`` set to the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import refsim
from bench_spec import FRAME_ENTRY, STEPS, WINDOWS, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

#: Probes run on each side of set-up; the first warms the reference up.
SPEED_PROBES = 4


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--cpu", type=int, default=None, help="CPU to pin this process to")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    probes = [refsim.probe() for _ in range(SPEED_PROBES)][1:]
    t0 = time.perf_counter()
    import repro
    import bench_rigs

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "trace":
        import bench_trace

        tracer = bench_trace.install()

    rigs, points = [], {}
    for label, build in bench_rigs.POINTS[args.workload](args.seed):
        try:
            rigs.append(build())
        except Exception as exc:  # one point failing must not stop the rest
            traceback.print_exc()
            points[label] = {"error": repr(exc)}
    setup_s = time.perf_counter() - t0
    probes += [refsim.probe() for _ in range(SPEED_PROBES - 1)]
    out = {"setup_s": setup_s, "setup_probe_s": statistics.median(probes)}
    if args.mode != "setup":
        warmup, end = WINDOWS[args.workload]
        # Traced runs are not sliced, so Simulator.run spans stay per point.
        sliced = {"step": STEPS[args.workload], "probe": refsim.probe} if args.mode == "run" else {}
        slices = []
        for rig in rigs:
            try:
                points[rig.label], rig_slices = bench_rigs.measure(rig, warmup, end, **sliced)
                slices.extend(rig_slices)
            except Exception as exc:
                traceback.print_exc()
                points[rig.label] = {"error": repr(exc)}
        out["wall_s"] = sum(seconds for seconds, _ in slices)
        out["slices"] = slices
        out["points"] = points
        out["counters"] = bench_rigs.counters(rigs)
        if tracer is not None:
            out["calls"] = tracer.calls
            out["self_s"] = tracer.self_s
            out["frames"] = tracer.entry_calls[FRAME_ENTRY]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
