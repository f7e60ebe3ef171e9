"""Re-pin the benchmark's result fingerprints, deliberately.

    python3 perfbench/pin.py [--workload NAME ...]

Runs every pinned seed of each workload once in a fresh worker, refuses a
point that raised or whose streams are not intact, prints every
fingerprint that moved against ``pins.json``, and rewrites the file.  Run
it only when a change is meant to move simulated results, and say which
moved and why.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_spec import DEFAULT_SEEDS, EXTRA_PINNED_SEEDS, WORKLOADS
from run import PINS, seed_key, spawn


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/pin.py")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for workload in args.workload or WORKLOADS:
        default = DEFAULT_SEEDS[workload]
        seeds = [None] if default is None else sorted({default, *EXTRA_PINNED_SEEDS})
        for seed in seeds:
            key = seed_key(workload, seed)
            points = spawn("run", workload, seed)["points"]
            bad = {label: fp for label, fp in points.items() if "error" in fp or not fp["intact"]}
            if bad:
                print(f"refusing to pin {workload} seed {key}: {bad}", file=sys.stderr)
                return 1
            old = pins.setdefault(workload, {}).get(key, {})
            for label, fp in sorted(points.items()):
                if old.get(label) != fp:
                    print(f"{workload} seed {key} {label}:\n  was {old.get(label)}\n  now {fp}")
            pins[workload][key] = points
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
