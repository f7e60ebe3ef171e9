"""Multi-queue RSS receive subsystem: per-CPU receive paths with flow steering.

Extends the paper's single-receive-path host model to N hardware receive
queues, each interrupting its own CPU — the direction receive scaling
actually took after the paper (RSS/MSI-X hardware, then aRFS).  See
DESIGN.md §7.

Modules
-------
``rss``       Toeplitz hash + 128-entry indirection table (spec-exact).
``steering``  Pluggable policies: static RSS vs aRFS-style flow steering.
``costs``     Mechanistic cross-CPU costs + residual SMP lock model.
``kernel``    The base kernel generalized to N CPUs (softirq/app/timer
              contexts each pick their CPU; cross-CPU traffic is charged).
``workload``  ``build_mq_stream_rig``, a one-call shim over
              :func:`repro.workloads.stream.build_stream_rig`.

The machine itself is :class:`repro.host.machine.ReceiverMachine` with
``queues > 1``.
"""

from repro.mq.costs import CrossCpuCostModel, mq_lock_model
from repro.mq.rss import RSS_DEFAULT_KEY, IndirectionTable, RssHasher, toeplitz_hash
from repro.mq.steering import FlowSteering, StaticRssSteering, SteeringPolicy, make_policy

__all__ = [
    "CrossCpuCostModel",
    "mq_lock_model",
    "RSS_DEFAULT_KEY",
    "IndirectionTable",
    "RssHasher",
    "toeplitz_hash",
    "FlowSteering",
    "StaticRssSteering",
    "SteeringPolicy",
    "make_policy",
]
