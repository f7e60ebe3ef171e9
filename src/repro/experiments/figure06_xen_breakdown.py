"""Figure 6: breakdown of receive-processing overheads in the Xen guest.

Paper result: the virtualization-stack per-packet routines (non-proto +
netback + netfront + tcp rx + tcp tx + buffer) account for ~56% of the total,
of which only ~10% is TCP/IP protocol processing; per-byte is ~14% despite
there being TWO data copies on this path.
"""

from __future__ import annotations

import math

from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.experiments.base import ExperimentResult, window
from repro.experiments._breakdowns import breakdown_rows, xen_axis
from repro.host.configs import xen_config
from repro.workloads.stream import run_stream_experiment

PAPER_EXPECTED = {
    "virt_per_packet_share": 0.56,
    "tcp_share": 0.10,
    "per_byte_share": 0.14,
    "baseline_throughput_mbps": 1088,
}


def run(quick: bool = False) -> ExperimentResult:
    duration, warmup = window(quick)
    result = run_stream_experiment(
        xen_config(), OptimizationConfig.baseline(), duration=duration, warmup=warmup
    )
    rows = breakdown_rows({"cycles/packet": result}, xen_axis())
    virt = math.fsum(result.share(c) for c in Category.XEN_PER_PACKET_GROUP)
    tcp = result.share(Category.TCP_RX) + result.share(Category.TCP_TX)
    notes = (
        f"Measured: virtualization per-packet group {virt:.1%}, TCP {tcp:.1%}, "
        f"per-byte {result.share(Category.PER_BYTE):.1%}, throughput "
        f"{result.throughput_mbps:.0f} Mb/s. Paper: 56% / 10% / 14% at 1088 Mb/s."
    )
    return ExperimentResult(
        experiment_id="figure6",
        title="Receive processing overhead breakdown (Xen guest, baseline)",
        paper_reference="Figure 6 / §2.4",
        columns=["category", "cycles/packet"],
        rows=rows,
        paper_expected=PAPER_EXPECTED,
        notes=notes,
    )
