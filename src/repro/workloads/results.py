"""Result types and measurement helpers shared by the workloads."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cpu.profiler import ProfileSnapshot


@dataclass
class ThroughputResult:
    """Outcome of one streaming-receive measurement window."""

    system: str
    optimized: bool
    throughput_mbps: float
    cpu_utilization: float
    duration_s: float
    bytes_received: int
    network_packets: int
    host_packets: int
    acks_sent: int
    aggregation_degree: float
    cycles_per_packet: float
    breakdown: Dict[str, float]
    ring_drops: int
    retransmits: int
    profile: Optional[ProfileSnapshot] = None
    #: Simulator events fired across the whole run (warmup + measurement),
    #: for the perf-benchmark harness (events/sec of the simulator itself).
    events_fired: int = 0
    #: Time-series telemetry (``{"interval_s", "samples", "series"}``) when
    #: the run was sampled (see :mod:`repro.obs.sampler`); None otherwise.
    #: Excluded from figure rows, so sampled rows stay bit-identical.
    series: Optional[Dict] = None

    @property
    def cpu_scaled_mbps(self) -> float:
        """Throughput normalized to 100% CPU (the paper's "CPU-scaled units").

        When the optimized system saturates the NICs below full CPU
        utilization, this extrapolates what more NICs could carry (§5.1).
        """
        if self.cpu_utilization <= 0:
            return 0.0
        return self.throughput_mbps / self.cpu_utilization

    def share(self, category: str) -> float:
        total = math.fsum(self.breakdown.values())
        if total <= 0:
            return 0.0
        return self.breakdown.get(category, 0.0) / total

    def group_cycles(self, categories) -> float:
        return math.fsum(self.breakdown.get(c, 0.0) for c in categories)


@dataclass
class LatencyResult:
    """Outcome of one request/response measurement window."""

    system: str
    optimized: bool
    transactions: int
    duration_s: float
    mean_rtt_s: float

    @property
    def transactions_per_sec(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.transactions / self.duration_s
