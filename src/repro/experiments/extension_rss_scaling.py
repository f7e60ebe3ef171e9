"""Extension: receive scaling with multi-queue RSS (queues × connections).

The paper scales receive processing by making each packet cheaper on one
CPU; hardware went the other way a year later — RSS/MSI-X NICs spread
flows over per-CPU receive paths.  This sweep puts the two lines on the
same axes: the SMP streaming rig of Figure 12 served by ``q`` receive
queues (``q`` CPUs), under static-RSS and aRFS-style steering.

Expectations (the model's, not the paper's):

* at 200+ connections the baseline stack is CPU-bound on one queue, so
  aggregate throughput rises monotonically with the queue count until the
  five GbE links saturate;
* static RSS pays a growing ``xcpu`` toll (cache-line bouncing + cross-CPU
  wakeups, since the hash ignores where the consumer runs) that aRFS-style
  steering eliminates;
* ``queues=1`` is the single-path rig of Figure 12 by construction —
  those rows match Figure 12 bit-for-bit, and with one queue there is
  nothing to steer, so the aRFS column equals the RSS baseline.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import OptimizationConfig
from repro.experiments.base import ExperimentResult, window
from repro.host.configs import linux_smp_config
from repro.parallel import run_points
from repro.workloads.stream import run_stream_experiment

FULL_QUEUES = (1, 2, 4, 8)
QUICK_QUEUES = (1, 2, 4)
FULL_COUNTS = (50, 200, 400)
QUICK_COUNTS = (5, 50, 400)

COLUMNS = [
    "queues", "connections", "Original Mb/s", "Optimized Mb/s", "gain %",
    "aggregation degree", "aRFS Mb/s", "xcpu cyc/pkt",
]


def _measure_point(point: Tuple[int, int, float, float]) -> Dict[str, float]:
    """One sweep point: (queues, connections, duration, warmup) -> one row.

    Module-level and returning a plain dict so it is picklable for the
    :mod:`repro.parallel` process pool; each simulation is fully isolated.
    Runs the baseline and optimized stacks under static RSS plus the
    baseline stack under aRFS-style flow steering.
    """
    q, n, duration, warmup = point

    def stream(opt: OptimizationConfig, steering: str):
        return run_stream_experiment(
            linux_smp_config(), opt, n_connections=n, duration=duration,
            warmup=warmup, queues=q, steering=steering,
        )

    base = stream(OptimizationConfig.baseline(), "rss")
    opt = stream(OptimizationConfig.optimized(), "rss")
    arfs = stream(OptimizationConfig.baseline(), "arfs")
    return {
        "queues": q,
        "connections": n,
        "Original Mb/s": base.throughput_mbps,
        "Optimized Mb/s": opt.throughput_mbps,
        "gain %": 100 * (opt.throughput_mbps / base.throughput_mbps - 1),
        "aggregation degree": opt.aggregation_degree,
        "aRFS Mb/s": arfs.throughput_mbps,
        "xcpu cyc/pkt": base.breakdown.get("xcpu", 0.0),
    }


def run(
    quick: bool = False,
    jobs: Optional[int] = None,
    queues: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    duration, warmup = window(quick)
    queue_counts = tuple(queues) if queues else (QUICK_QUEUES if quick else FULL_QUEUES)
    counts = QUICK_COUNTS if quick else FULL_COUNTS
    points = [(q, n, duration, warmup) for q in queue_counts for n in counts]
    rows = run_points(_measure_point, points, jobs=jobs)
    return ExperimentResult(
        experiment_id="extension_rss_scaling",
        title="Multi-queue RSS receive scaling (queues x connections, SMP)",
        paper_reference="extension of Figure 12 / §5.3 (post-paper RSS hardware)",
        columns=list(COLUMNS),
        rows=rows,
        notes=(
            "queues=1 rows are the Figure 12 rig verbatim.  'Original'/"
            "'Optimized' use static RSS steering; 'aRFS Mb/s' re-runs the "
            "baseline with flow steering (consumer-CPU filters), which "
            "zeroes the xcpu column (cross-CPU cache-line bouncing + "
            "IPI/wakeup cycles per packet under RSS)."
        ),
    )
