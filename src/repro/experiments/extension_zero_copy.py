"""Extension: copy vs zero-copy receive across buffer working-set sizes.

Every paper experiment prices the receive copy against a *flat* cache
model: 0.75 ALU cycles/byte plus one constant miss charge per line.
This sweep turns on the memory-hierarchy backend
(:mod:`repro.mem` — per-node LLC with limited DDIO I/O ways, NUMA
local/remote DRAM) and asks the question the flat model cannot: *when
does copying become the bottleneck, and does a page-remapping
zero-copy receive fix it?*

The knob is ``app_working_set_bytes`` — the application data the copy
destination competes with for LLC capacity.  Sub-LLC, copy sources are
DDIO-warm and destinations stay resident: the copy is nearly free and
zero-copy loses (page-table setup per 4 KiB mapped costs more than a
warm copy).  Past the LLC the destination write misses (RFO to DRAM
per line) and the copy's cycles/byte climbs steeply, while the
zero-copy charge — per-skb setup plus per-page map cost — does not
depend on the working set at all.  The crossover is the point of the
experiment, mirroring the zero-copy literature's "copy is fine until
it isn't" result.

Rigs:

* ``up`` / ``smp`` — the single-path machines of Figures 7/12, 1-node
  hierarchy, five GbE links; the UP rig is CPU-bound once the copy
  turns cold, so the goodput collapse is visible directly.
* ``mq4`` — the 4-queue RSS rig split across 2 NUMA nodes (queues and
  CPUs 0-1 on node 0, 2-3 on node 1; per-node sk_buff pools), with the
  CPUs downclocked to 0.8 GHz so four receive paths are receive-bound
  at GbE line rates — the same "evaluate at saturation" trick as the
  paper's sender-limited rigs.  RSS hashing ignores the consumer node,
  so roughly half of all consumed lines are NUMA-remote; the
  ``NUMA-remote lines`` column counts them.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import OptimizationConfig
from repro.experiments.base import ExperimentResult, window
from repro.host.configs import linux_smp_config, linux_up_config
from repro.mem.hierarchy import MemConfig
from repro.parallel import run_points
from repro.workloads.stream import SERVER_PORT, build_stream_rig, observed_run

#: LLC size used by every point (MemConfig default: 2 MiB, 16-way, 2 I/O
#: ways).  Working sets sweep from well under the app share (~1.75 MiB)
#: to many multiples of it.
FULL_WORKING_SETS = (256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20)
QUICK_WORKING_SETS = (256 << 10, 4 << 20, 16 << 20)

#: mq4 CPU clock (Hz).  At the stock 3 GHz four receive paths saturate
#: five GbE links with cycles to spare in either mode and the goodput
#: columns tie at link rate; 0.8 GHz makes the rig receive-CPU-bound so
#: the copy's cache behaviour shows up in goodput, not just cycles/byte.
MQ4_CPU_FREQ_HZ = 0.8e9

#: Per rig: (base config, receive queues, CPU clock override or None).
RIGS = {
    "up": (linux_up_config, 1, None),
    "smp": (linux_smp_config, 1, None),
    "mq4": (linux_smp_config, 4, MQ4_CPU_FREQ_HZ),
}
SYSTEMS = tuple(RIGS)

#: NUMA nodes for the mq4 rig unless overridden via ``--numa-nodes``.
DEFAULT_MQ4_NODES = 2

COLUMNS = [
    "system", "working set KiB", "copy Mb/s", "zcrx Mb/s", "zcrx gain %",
    "copy cyc/B", "zcrx cyc/B", "DDIO evictions", "NUMA-remote lines",
]


def measure_mode(
    system: str,
    working_set_bytes: int,
    nodes: int,
    zero_copy: bool,
    duration: float,
    warmup: float,
) -> Dict[str, float]:
    """Run one (rig, working set, receive mode) cell and return raw numbers.

    Runs the rig itself (rather than via ``run_*_experiment``) because
    the row wants the hierarchy counters off ``machine.mem`` alongside the
    goodput.  Cycles/byte is the busy-cycle delta over the measurement
    window divided by the delivered-byte delta — whole-stack cycles, so
    the copy-vs-zcrx difference rides on top of a common protocol floor.
    """
    try:
        config_fn, queues, freq_hz = RIGS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r} (want up, smp, or mq4)") from None
    opt = OptimizationConfig.zcrx() if zero_copy else OptimizationConfig.optimized()
    cfg = dataclasses.replace(
        config_fn(), mem=MemConfig(nodes=nodes, app_working_set_bytes=working_set_bytes)
    )
    if freq_hz is not None:
        cfg = dataclasses.replace(cfg, cpu_freq_hz=freq_hz)
    label = f"{system}/{'zcrx' if zero_copy else 'copy'}/ws{working_set_bytes >> 10}K"
    build = partial(build_stream_rig, cfg, opt, queues=queues)
    with observed_run(label, build, warmup, warmup + duration, {SERVER_PORT: "stream"}) as rig:
        sim, machine = rig.sim, rig.machine
        sim.run(until=warmup)
        busy0 = machine.total_busy_cycles()
        bytes0 = rig.server_bytes()
        evictions0 = machine.mem.io_evictions
        remote0 = machine.mem.remote_line_fetches
        sim.run(until=warmup + duration)
        delta_bytes = rig.server_bytes() - bytes0
        delta_busy = machine.total_busy_cycles() - busy0
    return {
        "mbps": delta_bytes * 8 / duration / 1e6,
        "cyc_per_byte": delta_busy / max(1, delta_bytes),
        "io_evictions": machine.mem.io_evictions - evictions0,
        "remote_lines": machine.mem.remote_line_fetches - remote0,
    }


def _measure_point(point: Tuple[str, int, int, bool, float, float]) -> Dict[str, object]:
    """One sweep point: (system, working set, nodes, zcrx-only, window) -> row.

    Module-level and returning a plain dict so it is picklable for the
    :mod:`repro.parallel` process pool.  Counter columns come from the
    copy-mode run (the mode whose consumption pattern the hierarchy
    prices) — or from the zcrx run when ``--zero-copy`` restricted the
    sweep, with the copy columns zeroed.
    """
    system, working_set, nodes, zc_only, duration, warmup = point
    zc = measure_mode(system, working_set, nodes, True, duration, warmup)
    if zc_only:
        copy = {"mbps": 0.0, "cyc_per_byte": 0.0,
                "io_evictions": zc["io_evictions"],
                "remote_lines": zc["remote_lines"]}
        gain = 0.0
    else:
        copy = measure_mode(system, working_set, nodes, False, duration, warmup)
        gain = (
            100 * (zc["mbps"] / copy["mbps"] - 1) if copy["mbps"] > 0 else 0.0
        )
    return {
        "system": system,
        "working set KiB": working_set >> 10,
        "copy Mb/s": copy["mbps"],
        "zcrx Mb/s": zc["mbps"],
        "zcrx gain %": gain,
        "copy cyc/B": copy["cyc_per_byte"],
        "zcrx cyc/B": zc["cyc_per_byte"],
        "DDIO evictions": copy["io_evictions"],
        "NUMA-remote lines": copy["remote_lines"],
    }


def run(
    quick: bool = False,
    jobs: Optional[int] = None,
    systems: Optional[Sequence[str]] = None,
    numa_nodes: Optional[int] = None,
    zero_copy: Optional[bool] = None,
) -> ExperimentResult:
    """Sweep working-set size x rig x receive mode.

    ``numa_nodes`` overrides the mq4 rig's node count (default 2; the
    single-path rigs are single-socket and always run 1 node).
    ``zero_copy=True`` restricts every point to the zcrx mode only
    (copy columns report 0).
    """
    if numa_nodes is not None and numa_nodes < 1:
        raise ValueError(f"--numa-nodes must be >= 1, got {numa_nodes}")
    duration, warmup = window(quick)
    working_sets = QUICK_WORKING_SETS if quick else FULL_WORKING_SETS
    mq_nodes = numa_nodes if numa_nodes is not None else DEFAULT_MQ4_NODES
    zc_only = bool(zero_copy)
    chosen = tuple(systems) if systems else SYSTEMS
    for system in chosen:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r} (want one of {SYSTEMS})")
    points = [
        (system, ws, mq_nodes if system == "mq4" else 1, zc_only, duration, warmup)
        for system in chosen
        for ws in working_sets
    ]
    rows = run_points(_measure_point, points, jobs=jobs)
    return ExperimentResult(
        experiment_id="extension_zero_copy",
        title="Copy vs zero-copy receive across app working-set sizes",
        paper_reference="extension of §4.1 / Figure 7 (memory-hierarchy backend)",
        columns=list(COLUMNS),
        rows=rows,
        notes=(
            "All points run the full optimized stack (aggregation + ACK "
            "offload) over a 2 MiB 16-way LLC with 2 DDIO I/O ways; only "
            "the app drain differs (copy_to_user vs page remap).  Sub-LLC "
            "working sets keep the copy destination cache-resident and "
            "copy wins; past the LLC every destination line is an RFO to "
            "DRAM and copy cycles/byte climbs while zcrx stays flat.  The "
            "mq4 rig runs 4 RSS queues over "
            f"{DEFAULT_MQ4_NODES} NUMA nodes at "
            f"{MQ4_CPU_FREQ_HZ / 1e9:.1f} GHz (receive-CPU-bound at GbE "
            "line rate), so the crossover shows in goodput, not just "
            "cycles/byte."
        ),
    )
