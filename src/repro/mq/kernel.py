"""Per-queue softirq entry for the multi-queue receive paths.

The kernel is :class:`repro.host.kernel.Kernel`, which runs one costed
stack on any number of CPUs.  Each NIC queue's driver holds a
:class:`SoftirqPort` as its ``kernel``: the port enters the queue's CPU
around the softirq body and owns that queue's (per-CPU, lock-free — §3.5)
aggregation engine.  Cross-CPU costs are in :mod:`repro.mq.costs`.
"""

from __future__ import annotations

from typing import List

from repro.buffers.skbuff import SkBuff
from repro.host.kernel import Kernel

#: The one kernel, under the name perfbench's ``mq`` layer binds
#: (``MqKernel.run_aggregator``).
MqKernel = Kernel


class SoftirqPort:
    """The driver-facing kernel interface for one receive queue."""

    def __init__(self, kernel: Kernel, cpu_index: int, aggregator=None):
        self.kernel = kernel
        self.cpu_index = cpu_index
        self.aggregator = aggregator

    def softirq_baseline(self, skbs: List[SkBuff]) -> None:
        prev = self.kernel.enter_cpu(self.cpu_index)
        try:
            self.kernel.softirq_baseline(skbs)
        finally:
            self.kernel.enter_cpu(prev)

    def softirq_aggregated(self) -> None:
        prev = self.kernel.enter_cpu(self.cpu_index)
        try:
            self.kernel.run_aggregator(self.aggregator)
        finally:
            self.kernel.enter_cpu(prev)
