"""Extension: resilience under deterministic fault injection.

Not a figure from the paper — the paper's evaluation runs on a clean
five-link LAN — but the direct stress test of its central correctness claim:
receive aggregation is *equivalent* to the unmodified stack (§3.2), so every
optimization must hold up when the wire misbehaves, not just when it is
perfect.

Each row arms one :func:`~repro.faults.plan.storm_plan` window (one fault
kind at one intensity, over ``[0.05 s, 0.10 s)``) against a Linux-UP
streaming rig and measures four builds:

* **baseline** — no paper optimizations;
* **optimized** — receive aggregation + ACK offload, coalescing always on;
* **resilient** — optimized plus the :class:`~repro.faults.degradation.
  CoalesceGovernor` (``OptimizationConfig.resilient()``), which auto-
  disables coalescing under disorder storms and restores it after a quiet
  period;
* **sort** — resilient plus the :class:`~repro.faults.repair.
  ReorderRepairBuffer` (``OptimizationConfig.resilient(repair=True)``):
  instead of surrendering coalescing, the governor's middle mode sorts
  frames back into sequence inside the coalescing window, so aggregation
  keeps merging straight through the storm (Wu et al.).  The three-way
  policy comparison — coalesce vs. sort-and-coalesce vs. disable — is the
  reorder rows' Optimized / Sort / Resilient columns.

Reported per mode: goodput over the fault window and time-to-recover —
the delay from fault end until a 10 ms goodput bin returns to 90% of the
same build's own pre-fault rate.  Recovery spans the 200 ms minimum RTO:
a fault that forces a retransmission timeout cannot recover faster than
RTO + slow-start ramp, so the sweep horizon extends well past it.

Every run also asserts §3.2 equivalence end to end: each receiver
connection delivered exactly the byte range it acknowledged (no loss, no
duplication past the socket), senders and receivers agree on the stream
position, and the sk_buff pools balance.  Run with ``--sanitize`` to add
the per-event invariant audits (fragment edges, ring/link/driver-reset
conservation, governor consistency) on top.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Dict, Optional, Tuple

from repro.core.config import OptimizationConfig
from repro.experiments.base import ExperimentResult
from repro.faults.plan import ImpairmentConfig, storm_plan
from repro.host.configs import linux_up_config
from repro.parallel import run_points
from repro.tcp.seqmath import seq_diff
from repro.workloads.stream import SERVER_PORT, build_stream_rig, observed_run

#: (kind, intensity, lro) sweep: every fault kind the injector supports,
#: the lossy ones at two intensities.  The ``lro=True`` reorder row runs the
#: same storm against a hardware-LRO NIC — the configuration where forcing
#: coalescing on is catastrophic (sessions park in-flight packets, so every
#: out-of-order arrival turns into a burst + late dupACKs, Wu et al.'s
#: pathology) and the governor's auto-disable pays for itself.
FULL_POINTS: Tuple[Tuple[str, float, bool], ...] = (
    ("loss_burst", 0.1, False),
    ("loss_burst", 0.3, False),
    ("corrupt", 0.2, False),
    ("reorder_storm", 0.3, False),
    ("reorder_storm", 0.3, True),
    ("reorder_storm", 0.5, True),
    ("dup_storm", 0.2, False),
    ("ring_storm", 0.9, False),
    ("pool_exhaust", 0.9, False),
    ("link_flap", 1.0, False),
    ("nic_hang", 1.0, False),
)
QUICK_POINTS: Tuple[Tuple[str, float, bool], ...] = (
    ("loss_burst", 0.3, False),
    ("reorder_storm", 0.3, True),
    ("nic_hang", 1.0, False),
)

MODES = ("baseline", "optimized", "resilient", "sort")

#: The injected window: [FAULT_START, FAULT_START + FAULT_DURATION).
FAULT_START = 0.05
FAULT_DURATION = 0.05
#: Pre-fault reference rate is measured over [REF_START, FAULT_START).
REF_START = 0.03
#: Goodput bin width for recovery detection.
RECOVERY_BIN = 0.01
#: A bin at >= this fraction of the pre-fault rate counts as recovered.
RECOVERY_FRACTION = 0.9
#: Give up declaring recovery past this sim time (2x the 200 ms min RTO
#: with exponential backoff, plus the slow-start ramp back to line rate).
RECOVERY_HORIZON = 0.70
QUICK_RECOVERY_HORIZON = 0.55

PAPER_EXPECTED = {
    "equivalence": "§3.2: optimized receive path is equivalent to the unmodified stack",
}


def _mode_opt(mode: str) -> OptimizationConfig:
    if mode == "baseline":
        return OptimizationConfig.baseline()
    if mode == "optimized":
        return OptimizationConfig.optimized()
    if mode == "sort":
        return OptimizationConfig.resilient(repair=True)
    return OptimizationConfig.resilient()


def _assert_streams_intact(machine, senders, label: str) -> None:
    """§3.2 equivalence, end to end: the delivered stream is the sent one.

    For every connection the receiver advanced ``rcv_nxt`` over exactly the
    bytes it handed the application (nothing lost, nothing duplicated past
    the socket), and the sender's acknowledged prefix never exceeds what
    the receiver delivered (an ACK for undelivered data would be fabricated
    acknowledgment).  Byte-content equality is covered by the materialized
    integrity tests in tests/test_faults.py; here the streams are
    length-only so the sweep stays fast.
    """
    kernel = machine.kernel
    for sender in senders:
        conn = sender.conn
        server_key = conn.key.reverse()
        server_sock = kernel.sockets.get(server_key)
        server_conn = kernel.connections.get(server_key)
        if server_sock is None or server_conn is None:
            raise AssertionError(
                f"{label}: server never accepted connection {conn.key}"
            )
        delivered = server_sock.bytes_received
        span = seq_diff(server_conn.rcv_nxt, server_conn.irs) - 1
        if delivered != span:
            raise AssertionError(
                f"{label}: {conn.name} stream not intact — receiver "
                f"acknowledged {span} bytes but delivered {delivered} "
                "to the application"
            )
        acked = seq_diff(conn.snd_una, conn.iss) - 1
        if acked > span:
            raise AssertionError(
                f"{label}: {conn.name} sender believes {acked} bytes "
                f"acknowledged but receiver only took {span}"
            )


def _run_mode(
    mode: str, kind: str, intensity: float, horizon: float, lro: bool
) -> Dict[str, float]:
    """One build under one storm window; returns the per-mode numbers."""
    plan = storm_plan(kind, intensity, start=FAULT_START, duration=FAULT_DURATION)
    imp = ImpairmentConfig(plan=plan)
    config = linux_up_config()
    if lro:
        config = dataclasses.replace(config, nic_lro=True, name="Linux UP/LRO")
    label = f"{kind}@{intensity:g}{'+lro' if lro else ''}/{mode}"
    build = partial(build_stream_rig, config, _mode_opt(mode), impairments=imp)
    with observed_run(label, build, REF_START, horizon, {SERVER_PORT: "stream"}) as rig:
        sim, machine, senders = rig.sim, rig.machine, rig.traffic
        sim.run(until=REF_START)
        ref_bytes0 = rig.server_bytes()
        sim.run(until=FAULT_START)
        ref_bytes1 = rig.server_bytes()
        ref_rate = (ref_bytes1 - ref_bytes0) / (FAULT_START - REF_START)

        fault_end = plan.horizon
        sim.run(until=fault_end)
        fault_bytes = rig.server_bytes() - ref_bytes1
        fault_mbps = fault_bytes * 8 / FAULT_DURATION / 1e6

        recovery_ms: Optional[float] = None
        t = fault_end
        prev = rig.server_bytes()
        while t < horizon - 1e-12:
            t += RECOVERY_BIN
            sim.run(until=t)
            cur = rig.server_bytes()
            if (cur - prev) / RECOVERY_BIN >= RECOVERY_FRACTION * ref_rate:
                recovery_ms = (t - fault_end) * 1000.0
                break
            prev = cur

    _assert_streams_intact(machine, senders, label)
    if mode in ("resilient", "sort") and recovery_ms is None:
        raise AssertionError(
            f"{label}: goodput never returned to "
            f"{RECOVERY_FRACTION:.0%} of the pre-fault rate within "
            f"{horizon * 1000:.0f} ms of sim time"
        )

    return {
        "mbps": fault_mbps,
        "recovery_ms": recovery_ms,
        "retransmits": sum(s.conn.stats.retransmits for s in senders),
        "resets": sum(d.stats.resets for d in machine.drivers),
        "flips": sum(g.stats.enters + g.stats.exits for g in machine.governors),
        "holds": sum(r.stats.holds for r in machine.repairs),
    }


def _measure_point(point: Tuple[str, float, bool, float]) -> Dict[str, object]:
    """One sweep point: one (kind, intensity, lro) across all three builds.

    Module-level and plain-data in/out so :mod:`repro.parallel` can ship it
    to a worker process; the fault plan replays bit-identically there.
    """
    kind, intensity, lro, horizon = point
    by_mode = {
        mode: _run_mode(mode, kind, intensity, horizon, lro) for mode in MODES
    }
    resil = by_mode["resilient"]
    sort = by_mode["sort"]

    def _ms(value: Optional[float]) -> object:
        return round(value, 1) if value is not None else "-"

    return {
        "fault": f"{kind}+lro" if lro else kind,
        "intensity": intensity,
        "Baseline Mb/s": by_mode["baseline"]["mbps"],
        "Optimized Mb/s": by_mode["optimized"]["mbps"],
        "Resilient Mb/s": resil["mbps"],
        "Sort Mb/s": sort["mbps"],
        "base recovery ms": _ms(by_mode["baseline"]["recovery_ms"]),
        "opt recovery ms": _ms(by_mode["optimized"]["recovery_ms"]),
        "resil recovery ms": _ms(resil["recovery_ms"]),
        "sort recovery ms": _ms(sort["recovery_ms"]),
        "retransmits": resil["retransmits"],
        "resets": resil["resets"],
        "degrade flips": resil["flips"],
        "repair holds": sort["holds"],
        "streams intact": "yes",  # _assert_streams_intact raised otherwise
    }


def run(
    quick: bool = False, jobs: Optional[int] = None
) -> ExperimentResult:
    points = QUICK_POINTS if quick else FULL_POINTS
    horizon = QUICK_RECOVERY_HORIZON if quick else RECOVERY_HORIZON
    rows = run_points(
        _measure_point,
        [(kind, intensity, lro, horizon) for kind, intensity, lro in points],
        jobs=jobs,
    )
    return ExperimentResult(
        experiment_id="extension_resilience",
        title="Goodput and recovery time under injected faults",
        paper_reference="extension (§3.2 equivalence under faults)",
        columns=[
            "fault", "intensity",
            "Baseline Mb/s", "Optimized Mb/s", "Resilient Mb/s", "Sort Mb/s",
            "base recovery ms", "opt recovery ms", "resil recovery ms",
            "sort recovery ms",
            "retransmits", "resets", "degrade flips", "repair holds",
            "streams intact",
        ],
        rows=rows,
        paper_expected=PAPER_EXPECTED,
        notes=(
            "Goodput measured over the 50 ms fault window "
            f"(fault active [{FAULT_START * 1000:.0f}, "
            f"{(FAULT_START + FAULT_DURATION) * 1000:.0f}) ms); recovery = "
            "delay from fault end until a 10 ms goodput bin regains 90% of "
            "the same build's pre-fault rate ('-' = not within the sweep "
            "horizon; the 200 ms minimum RTO dominates loss-heavy faults). "
            "Sort = resilient plus the bounded reorder-repair stage "
            "(sort-and-coalesce): on the reorder rows it keeps aggregation "
            "merging through the storm instead of degrading to singles. "
            "Every run asserts the delivered byte stream equals the sent "
            "stream on all five connections."
        ),
    )
