"""Golden row digests: prove that a change moved no simulated result.

Every experiment in :data:`repro.experiments.runner.REGISTRY` is run at
quick fidelity and its rows are reduced to one sha256 over
``json.dumps(rows, sort_keys=True, default=repr)``.  The pinned digests
live in ``tests/golden/rows.json``; a refactor that claims to move
nothing must leave every one of them as it is.

Run as a module::

    python -m repro.analysis.golden            # check; exit 1 naming every
                                               # experiment whose digest moved
    python -m repro.analysis.golden --update   # re-pin, printing which moved

A serial check of all 22 experiments takes about four minutes, so it is a
CI job of its own rather than part of the tier-1 tests.  Re-pin only
deliberately, in a change that explains why its rows moved.  The pins
hold on CPython 3.10 to 3.12 under any hash seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.experiments.runner import REGISTRY, run_experiment

DEFAULT_PIN = Path(__file__).resolve().parents[3] / "tests" / "golden" / "rows.json"


def pins(path: Path = DEFAULT_PIN) -> Dict[str, str]:
    """The pinned digests, by experiment id (empty before the first pin)."""
    return json.loads(path.read_text()) if path.exists() else {}


def rows_digest(rows) -> str:
    """The sha256 of one experiment's rows, as pinned."""
    blob = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(experiment_ids: Optional[Iterable[str]] = None) -> Dict[str, str]:
    """Run each experiment quick and serial; map its id to its rows' digest."""
    ids = list(REGISTRY) if experiment_ids is None else list(experiment_ids)
    return {eid: rows_digest(run_experiment(eid, quick=True).rows) for eid in ids}


def moved(pinned: Dict[str, str], fresh: Dict[str, str]) -> List[str]:
    """Experiment ids whose digest differs from (or is missing in) the pin."""
    return sorted(eid for eid in set(pinned) | set(fresh) if pinned.get(eid) != fresh.get(eid))


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m repro.analysis.golden")
    parser.add_argument(
        "--update", action="store_true",
        help=f"re-pin the digests in {DEFAULT_PIN.name} and print which moved",
    )
    args = parser.parse_args(argv)

    pinned = pins()
    fresh = digests()
    changed = moved(pinned, fresh)
    if args.update:
        DEFAULT_PIN.parent.mkdir(parents=True, exist_ok=True)
        DEFAULT_PIN.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        for eid in changed:
            print(f"re-pinned {eid}")
        print(f"{len(changed)} of {len(fresh)} digests moved; wrote {DEFAULT_PIN}")
        return 0
    for eid in changed:
        print(f"MOVED {eid}: pinned {pinned.get(eid)} now {fresh.get(eid)}")
    print(f"{len(changed)} of {len(set(pinned) | set(fresh))} digests moved")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
