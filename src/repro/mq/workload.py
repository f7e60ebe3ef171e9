"""The streaming-receive rig on the multi-queue machine, in one call.

:func:`repro.workloads.stream.build_stream_rig` takes ``queues`` and
``steering`` itself; this shim keeps the older multi-queue entry point.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.host.configs import OptimizationConfig, SystemConfig
from repro.mq.steering import SteeringPolicy
from repro.workloads.stream import build_stream_rig


def build_mq_stream_rig(
    config: SystemConfig,
    opt: OptimizationConfig,
    queues: int,
    steering: Union[str, SteeringPolicy] = "rss",
    n_connections: Optional[int] = None,
):
    """``build_stream_rig`` with ``queues`` receive queues per NIC."""
    return build_stream_rig(config, opt, n_connections, queues=queues, steering=steering)
