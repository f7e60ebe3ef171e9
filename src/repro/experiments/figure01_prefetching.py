"""Figure 1: impact of prefetching on per-byte vs per-packet overhead.

Runs the baseline uniprocessor streaming benchmark under the three CPU
prefetch configurations and reports the share of total receive-processing
cycles spent in the per-byte, per-packet, and misc categories.

Paper result: per-byte falls from 52% (no prefetching) to 14% (full
prefetching); per-packet rises from 37% to ≈ 70%.
"""

from __future__ import annotations

import math

from repro.core.config import OptimizationConfig
from repro.cpu.cache import PrefetchMode
from repro.cpu.categories import Category
from repro.experiments.base import ExperimentResult, window
from repro.host.configs import linux_up_config
from repro.workloads.stream import run_stream_experiment

#: Figure 1 groups driver with the other per-packet routines.
PER_PACKET_CATEGORIES = (
    Category.RX,
    Category.TX,
    Category.BUFFER,
    Category.NON_PROTO,
    Category.DRIVER,
)

PAPER_EXPECTED = {
    "none": {"per-byte": 0.52, "per-packet": 0.37},
    "full": {"per-byte": 0.14, "per-packet": 0.70},
}


def run(quick: bool = False) -> ExperimentResult:
    duration, warmup = window(quick)
    rows = []
    for mode in (PrefetchMode.NONE, PrefetchMode.PARTIAL, PrefetchMode.FULL):
        result = run_stream_experiment(
            linux_up_config(prefetch=mode),
            OptimizationConfig.baseline(),
            duration=duration,
            warmup=warmup,
        )
        rows.append(
            {
                "prefetch": mode.value,
                "per-byte %": 100 * result.share(Category.PER_BYTE),
                "per-packet %": 100 * math.fsum(result.share(c) for c in PER_PACKET_CATEGORIES),
                "misc %": 100 * result.share(Category.MISC),
                "throughput Mb/s": result.throughput_mbps,
            }
        )
    return ExperimentResult(
        experiment_id="figure1",
        title="Impact of prefetching on per-byte vs per-packet overhead (UP)",
        paper_reference="Figure 1 / §2.1",
        columns=["prefetch", "per-byte %", "per-packet %", "misc %", "throughput Mb/s"],
        rows=rows,
        paper_expected=PAPER_EXPECTED,
        notes=(
            "Paper: per-byte share falls 52% -> 14% as prefetching is enabled; "
            "per-packet share rises 37% -> ~70%."
        ),
    )
