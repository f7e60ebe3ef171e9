"""Multi-queue receive scaling: RSS and flow steering beyond the paper.

The paper's receive path saturates one CPU; multi-queue NICs answer with
per-CPU receive paths fed by Receive-Side Scaling.  This example sweeps
queue count on the SMP server at a connection load that keeps the
single-path baseline CPU-bound, then contrasts static RSS steering with
aRFS-style flow steering (filters follow the consuming CPU, eliminating
cross-CPU traffic).

Usage::

    python examples/rss_scaling.py
"""

from repro import OptimizationConfig
from repro.host.configs import linux_smp_config
from repro.workloads.stream import run_stream_experiment

CONNECTIONS = 200
DURATION, WARMUP = 0.05, 0.05


def main() -> None:
    config = linux_smp_config()
    print(f"System: {config.name} — {CONNECTIONS} connections, "
          f"baseline stack (no aggregation)\n")

    print(f"{'queues':>6}  {'steering':>8}  {'Mb/s':>8}  {'CPU':>6}  {'xcpu cyc/pkt':>12}")
    # One queue is the paper's single-path machine: nothing to steer, so
    # both policies print the same row.
    for queues in (1, 2, 4):
        for steering in ("rss", "arfs"):
            r = run_stream_experiment(
                config, OptimizationConfig.baseline(), queues=queues,
                steering=steering, n_connections=CONNECTIONS,
                duration=DURATION, warmup=WARMUP,
            )
            xcpu = r.breakdown.get("xcpu", 0.0)
            print(f"{queues:>6}  {steering:>8}  {r.throughput_mbps:8.0f}  "
                  f"{r.cpu_utilization:6.1%}  {xcpu:12.0f}")

    print("\nStatic RSS pays cache-line bouncing + IPIs whenever the hash "
          "lands a flow's\nsoftirq work on a different CPU than its "
          "application; aRFS filters re-steer\nthe flow to its consumer "
          "and zero the xcpu category.  Full sweep:\n\n"
          "    python -m repro run extension_rss_scaling --quick --jobs -1")


if __name__ == "__main__":
    main()
