"""Figure 11: CPU overhead vs Aggregation Limit, with the x + y/k model.

Paper result: cycles/packet falls sharply as the limit grows from 1, with
most of the benefit achieved by a limit of ~20 and the measured curve
matching the analytic x + y/k model (§5.2), where x is the non-scalable
overhead and y the per-packet overhead that aggregation divides.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.config import OptimizationConfig
from repro.experiments.base import ExperimentResult, window
from repro.host.configs import linux_up_config
from repro.parallel import run_points
from repro.workloads.stream import run_stream_experiment

FULL_LIMITS = (1, 2, 3, 4, 6, 8, 12, 16, 20, 25, 30, 35)
QUICK_LIMITS = (1, 2, 4, 8, 20, 35)

PAPER_EXPECTED = {"chosen_limit": 20, "model": "x + y/k"}


def _measure_point(point: Tuple[int, float, float]) -> Tuple[float, float]:
    """One sweep point: (limit, duration, warmup) -> (cycles/pkt, degree).

    Module-level and returning plain floats so it is picklable for the
    :mod:`repro.parallel` process pool.  The simulation is fully isolated
    per call (own Simulator, machine, per-source seeded RNGs), so results
    do not depend on which process runs the point.
    """
    limit, duration, warmup = point
    result = run_stream_experiment(
        linux_up_config(),
        OptimizationConfig.optimized(aggregation_limit=limit),
        duration=duration,
        warmup=warmup,
    )
    return result.cycles_per_packet, result.aggregation_degree


def run(quick: bool = False, jobs: Optional[int] = None) -> ExperimentResult:
    duration, warmup = window(quick)
    limits: List[int] = list(QUICK_LIMITS if quick else FULL_LIMITS)
    outcomes = run_points(
        _measure_point, [(limit, duration, warmup) for limit in limits], jobs=jobs
    )
    measured = {limit: cyc for limit, (cyc, _) in zip(limits, outcomes)}
    degrees = {limit: deg for limit, (_, deg) in zip(limits, outcomes)}

    # Least-squares fit of the paper's analytic model (§5.2):
    # cycles = x + y * (1/k), evaluated at the *achieved* aggregation degree.
    inv = [1.0 / max(degrees[k], 1.0) for k in limits]
    ys = [measured[k] for k in limits]
    n = len(limits)
    mean_inv = math.fsum(inv) / n
    mean_y = math.fsum(ys) / n
    var = math.fsum((v - mean_inv) ** 2 for v in inv)
    y_fit = math.fsum((v - mean_inv) * (c - mean_y) for v, c in zip(inv, ys)) / var if var else 0.0
    x_fit = mean_y - y_fit * mean_inv

    rows = [
        {
            "limit": limit,
            "cycles/packet": measured[limit],
            "aggregation degree": degrees[limit],
            "model x+y/k": x_fit + y_fit / max(degrees[limit], 1.0),
        }
        for limit in limits
    ]
    return ExperimentResult(
        experiment_id="figure11",
        title="CPU overhead vs Aggregation Limit (UP, optimized)",
        paper_reference="Figure 11 / §5.2",
        columns=["limit", "cycles/packet", "aggregation degree", "model x+y/k"],
        rows=rows,
        paper_expected=PAPER_EXPECTED,
        notes=(
            "Paper: sharp initial drop, most benefit by limit ~20, curve matches "
            "x + y/k.  The model column evaluates x + y/k at the *achieved* "
            "aggregation degree for each limit."
        ),
    )
