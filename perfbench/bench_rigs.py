"""Build each workload's simulation points, run them, and fingerprint them.

Importing this module imports the simulator.  A point is one operation:
it fails if it raises or if its fingerprint differs from the pin.  The
fingerprint is the point's simulated result over the measurement window
-- bytes delivered, Mb/s, cycles per network packet, transactions -- plus
the stream-intact verdict.  ``events_fired`` is left out on purpose, so a
restructured engine that fires fewer events for the same results passes.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import OptimizationConfig
from repro.faults.plan import FaultPlan, FaultSpec, ImpairmentConfig
from repro.host.configs import linux_smp_config, linux_up_config, xen_config
from repro.mem.hierarchy import MemConfig
from repro.mq.workload import build_mq_stream_rig
from repro.tcp.seqmath import seq_diff
from repro.tcp.state import TcpState
from repro.workloads.many import ManyConnWorkload, build_many_connection_rig
from repro.workloads.stream import build_stream_rig


@dataclasses.dataclass
class Rig:
    """One built, unstarted simulation point."""

    label: str
    sim: object
    machine: object
    #: The many-connection population driver (None for streaming rigs).
    population: object = None


def _stream_mix_points(seed: Optional[int]) -> List[Tuple[str, Callable[[], Rig]]]:
    points = []
    for system, config_fn in (
        ("up", linux_up_config), ("smp", linux_smp_config), ("xen", xen_config),
    ):
        for mode, opt_fn in (
            ("base", OptimizationConfig.baseline), ("opt", OptimizationConfig.optimized),
        ):
            label = f"{system}/{mode}"

            def build(label=label, config_fn=config_fn, opt_fn=opt_fn) -> Rig:
                sim, machine, _clients, _senders = build_stream_rig(config_fn(), opt_fn())
                return Rig(label, sim, machine)

            points.append((label, build))

    def build_mq4() -> Rig:
        # extension_zero_copy's mq4 rig: 4 RSS queues over 2 NUMA nodes at
        # 0.8 GHz, with a 16 MiB working set well past the 2 MiB LLC.
        config = dataclasses.replace(
            linux_smp_config(),
            cpu_freq_hz=0.8e9,
            mem=MemConfig(nodes=2, app_working_set_bytes=16 << 20),
        )
        sim, machine, _clients, _senders = build_mq_stream_rig(
            config, OptimizationConfig.optimized(), queues=4, steering="rss"
        )
        return Rig("smp/mq4-rss-mem/opt", sim, machine)

    points.append(("smp/mq4-rss-mem/opt", build_mq4))
    return points


def _many_conn_points(seed: Optional[int]) -> List[Tuple[str, Callable[[], Rig]]]:
    def build() -> Rig:
        workload = ManyConnWorkload(n_connections=10_000, arrival_rate_hz=2000.0, seed=seed)
        sim, machine, _clients, population = build_many_connection_rig(
            linux_up_config(), OptimizationConfig.optimized(), workload
        )
        population.start()
        return Rig("up/opt/many10k", sim, machine, population)

    return [("up/opt/many10k", build)]


def _reorder_repair_points(seed: Optional[int]) -> List[Tuple[str, Callable[[], Rig]]]:
    def build() -> Rig:
        plan = FaultPlan(
            specs=(
                FaultSpec("reorder_storm", start=0.05, duration=0.05, intensity=0.3),
                # Every inbound frame lost for 5 ms: each stream loses its
                # whole window and must wait out the RTO, whatever the
                # seed, so the seed moves which frames reorder, not how
                # much work the run does.
                FaultSpec(
                    "loss_burst", start=0.10, duration=0.005, intensity=1.0,
                    params={"p_good_bad": 1.0, "p_bad_good": 0.0, "loss_bad": 1.0},
                ),
            ),
            seed=seed,
            name="reorder_repair",
        )
        config = dataclasses.replace(linux_up_config(), nic_lro=True, name="Linux UP/LRO")
        sim, machine, _clients, _senders = build_stream_rig(
            config,
            OptimizationConfig.resilient(repair=True),
            impairments=ImpairmentConfig(plan=plan),
        )
        return Rig("up-lro/sort/reorder+loss", sim, machine)

    return [("up-lro/sort/reorder+loss", build)]


POINTS = {
    "stream_mix": _stream_mix_points,
    "many_conn_10k": _many_conn_points,
    "reorder_repair": _reorder_repair_points,
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _profile(machine):
    merged = getattr(machine, "merged_profile", None)
    return merged() if merged is not None else machine.profiler.snapshot(0.0)


def _totals(rig: Rig) -> Tuple[int, float, int, int]:
    """(bytes delivered, cycles, network packets, transactions) so far.

    Cycles are summed in the profiler's first-charge order, which does not
    depend on string hashing, so the float is the same in every process.
    """
    kernel = rig.machine.kernel
    delivered = sum(sock.bytes_received for sock in kernel.sockets.values())
    snap = _profile(rig.machine)
    transactions = rig.population.transactions if rig.population is not None else 0
    return delivered, sum(snap.cycles.values()), snap.network_packets, transactions


def slice_edges(warmup: float, end: float, step: Optional[float]) -> List[float]:
    """Simulated times at which a run stops to read the clock.

    Multiples of ``step`` up to ``end``, plus ``warmup`` and ``end``
    themselves; ``step`` None gives just those two.  ``round`` makes
    ``k * step`` the same double as the decimal literal, so a multiple
    equal to ``warmup`` is one edge, not two.
    """
    edges = {warmup, end}
    if step is not None:
        edges.update(round(k * step, 9) for k in range(1, int(round(end / step)) + 1))
    return sorted(t for t in edges if 0.0 < t <= end)


def measure(
    rig: Rig,
    warmup: float,
    end: float,
    step: Optional[float] = None,
    probe: Callable[[], float] = lambda: 0.0,
) -> Tuple[Dict[str, object], List[Tuple[float, float]]]:
    """Run ``rig`` to ``end``; return its fingerprint over [warmup, end]
    and, for each slice between ``slice_edges``, the host seconds it took
    and what ``probe()`` returned just before it.

    Stopping ``Simulator.run`` at an edge fires the same events in the same
    order as one call would; the pins check that.
    """
    clock = time.perf_counter
    run = rig.sim.run
    slices: List[Tuple[float, float]] = []
    for edge in slice_edges(warmup, end, step):
        probe_s = probe()
        t0 = clock()
        run(until=edge)
        slices.append((clock() - t0, probe_s))
        if edge == warmup:
            bytes0, cycles0, pkts0, tx0 = _totals(rig)
    bytes1, cycles1, pkts1, tx1 = _totals(rig)
    delivered = bytes1 - bytes0
    return {
        "bytes": delivered,
        "mbps": delivered * 8 / (end - warmup) / 1e6,
        "cyc_per_pkt": (cycles1 - cycles0) / max(1, pkts1 - pkts0),
        "transactions": tx1 - tx0,
        "intact": streams_intact(rig.machine),
    }, slices


def streams_intact(machine) -> bool:
    """Paper §3.2 equivalence over every connection of the rig.

    Each server connection handed its application exactly the bytes its
    ``rcv_nxt`` acknowledges (nothing lost or duplicated past the socket),
    and no client believes more was acknowledged than the server took.
    The same check ``extension_resilience`` asserts, extended to closing
    connections: a received FIN advances ``rcv_nxt`` by one.
    """
    kernel = machine.kernel
    taken = {}
    for key, conn in kernel.connections.items():
        if conn.state in (TcpState.LISTEN, TcpState.SYN_SENT):
            continue
        fin = 1 if conn._fin_rcvd else 0
        span = seq_diff(conn.rcv_nxt, conn.irs) - 1 - fin
        sock = kernel.sockets.get(key)
        delivered = sock.bytes_received + sock.pending_bytes if sock is not None else 0
        if delivered != span:
            return False
        taken[key.reverse()] = span + fin
    for client in machine.clients:
        for key, conn in client.connections.items():
            span = taken.get(key)
            if span is not None and seq_diff(conn.snd_una, conn.iss) - 1 > span:
                return False
    return True


def counters(rigs: List[Rig]) -> Dict[str, float]:
    """Workload counters read from public simulator state after a run."""
    events = frames = net = host = recycled = misses = drops = rtx = holds = 0
    for rig in rigs:
        machine = rig.machine
        events += rig.sim.events_fired
        frames += sum(nic.stats.rx_frames for nic in machine.nics)
        snap = _profile(machine)
        net += snap.network_packets
        host += snap.host_packets
        slab = getattr(machine, "packet_slab", None)
        if slab is not None:
            recycled += slab.recycled
            misses += slab.misses
        drops += machine.total_ring_drops()
        rtx += sum(
            conn.stats.retransmits
            for client in machine.clients
            for conn in client.connections.values()
        )
        holds += sum(r.stats.holds for r in getattr(machine, "repairs", ()))
    return {
        "sim.events_per_frame": events / max(1, frames),
        "core.aggregation.degree": net / max(1, host),
        "buffers.slab_recycled_frac": recycled / max(1, recycled + misses),
        "nic.ring_drops": drops,
        "tcp.retransmits": rtx,
        "faults.repair.holds": holds,
    }
