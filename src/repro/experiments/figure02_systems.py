"""Figure 2: per-byte vs per-packet overhead on UP, SMP, and Xen.

All three systems with full prefetching, baseline stack.  Paper result: in
every system the per-packet overheads far outweigh the per-byte overheads.
"""

from __future__ import annotations

import math

from repro.core.config import OptimizationConfig
from repro.cpu.categories import Category
from repro.experiments.base import ExperimentResult, window
from repro.host.configs import linux_smp_config, linux_up_config, xen_config
from repro.workloads.stream import run_stream_experiment

NATIVE_PER_PACKET = (Category.RX, Category.TX, Category.BUFFER, Category.NON_PROTO, Category.DRIVER)
XEN_PER_PACKET = (
    Category.NON_PROTO,
    Category.NETBACK,
    Category.NETFRONT,
    Category.TCP_RX,
    Category.TCP_TX,
    Category.BUFFER,
    Category.DRIVER,
)

PAPER_EXPECTED = {
    "per_packet_exceeds_per_byte": True,
    "xen_per_byte_share": 0.14,
    "up_per_byte_share": 0.17,
}


def run(quick: bool = False) -> ExperimentResult:
    duration, warmup = window(quick)
    rows = []
    for config in (linux_up_config(), linux_smp_config(), xen_config()):
        result = run_stream_experiment(
            config, OptimizationConfig.baseline(), duration=duration, warmup=warmup
        )
        per_packet = XEN_PER_PACKET if config.is_xen else NATIVE_PER_PACKET
        rows.append(
            {
                "system": config.name,
                "per-byte %": 100 * result.share(Category.PER_BYTE),
                "per-packet %": 100 * math.fsum(result.share(c) for c in per_packet),
                "misc %": 100
                * (result.share(Category.MISC) + result.share(Category.XEN)),
            }
        )
    return ExperimentResult(
        experiment_id="figure2",
        title="Per-byte vs per-packet overhead across systems (full prefetching)",
        paper_reference="Figure 2 / §2.1",
        columns=["system", "per-byte %", "per-packet %", "misc %"],
        rows=rows,
        paper_expected=PAPER_EXPECTED,
        notes="Paper: per-packet overheads far outweigh per-byte in all three systems.",
    )
