"""The receive streaming microbenchmark (paper §5.1).

A netperf-like TCP_STREAM receive test: one sender (client machine) per
server NIC pushes an endless byte stream at the highest rate TCP allows; the
server under test receives and discards.  The reported metric is the total
receive goodput over a measurement window that starts after a warm-up, plus
the CPU-utilization and per-packet profile needed by the breakdown figures.

Multi-connection variants (paper §5.3, Figure 12) distribute N connections
round-robin over the NICs/clients.  ``queues > 1`` serves the same rig from
a multi-queue machine (one receive path per queue, see
:mod:`repro.host.machine`): utilization is then busy cycles summed over all
CPUs against ``queues`` CPUs' worth of capacity, and the profile is the
cross-CPU merge (the same way the paper's SMP breakdowns sum both
processors).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.faults.injector import FaultInjector
from repro.faults.plan import ImpairmentConfig
from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.host.machine import ReceiverMachine
from repro.mq.steering import SteeringPolicy
from repro.net.addresses import ip_from_str
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import bind_connections, bind_machine
from repro.obs.sampler import bind_standard_probes
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource
from repro.workloads.results import ThroughputResult

SERVER_PORT = 5001


def make_receiver(sim, config, opt, ip, queues: int = 1, steering="rss"):
    """Build the right machine type (native or Xen) for ``config``."""
    if config.is_xen:
        if queues > 1:
            raise ValueError(
                f"the Xen pipeline has one receive path; queues={queues} "
                "needs a native config"
            )
        from repro.xen.machine import XenReceiverMachine

        return XenReceiverMachine(sim, config, opt, ip=ip)
    return ReceiverMachine(sim, config, opt, queues=queues, steering=steering, ip=ip)


def build_stream_rig(
    config: SystemConfig,
    opt: OptimizationConfig,
    n_connections: Optional[int] = None,
    impairments: Optional[ImpairmentConfig] = None,
    materialize: bool = False,
    queues: int = 1,
    steering: Union[str, SteeringPolicy] = "rss",
):
    """Assemble sim + server + clients + connections; returns them unstarted.

    ``queues``/``steering`` pick the receive queues per NIC and the
    multi-queue steering policy (see :class:`~repro.host.machine.ReceiverMachine`).

    ``impairments`` optionally applies steady-state wire impairments
    (drop/reorder/dup probabilities, per-link seeded RNG streams) and arms a
    deterministic :class:`~repro.faults.plan.FaultPlan` against the built
    machine (stashed as ``machine.fault_injector`` for post-run analysis).

    ``materialize`` makes source *j* carry its real deterministic byte
    pattern (seed ``j``) so receivers can verify payload content end to end;
    throughput runs keep the default length-only segments.
    """
    sim = Simulator()
    machine = make_receiver(
        sim, config, opt, ip=ip_from_str("10.0.0.1"), queues=queues, steering=steering
    )
    machine.listen(SERVER_PORT)

    imp = impairments
    probs_active = imp is not None and (imp.drop > 0 or imp.reorder > 0 or imp.dup > 0)
    clients: List[ClientHost] = []
    for i in range(config.n_nics):
        client = ClientHost(sim, ip_from_str(f"10.0.1.{i + 1}"), name=f"client{i}", iss_base=1000 + i)
        if probs_active:
            machine.add_client(
                client,
                drop_prob=imp.drop,
                reorder_prob=imp.reorder,
                dup_prob=imp.dup,
                rng=SeededRng(imp.seed, f"link{i}"),
            )
        else:
            machine.add_client(client)
        clients.append(client)

    if n_connections is None:
        n_connections = config.n_nics
    sender_sockets = []
    for j in range(n_connections):
        client = clients[j % len(clients)]
        tcp_cfg = TcpConfig(mss=config.mss, materialize_payload=materialize)
        sock = client.connect(machine.ip, SERVER_PORT, config=tcp_cfg)
        sock.conn.attach_source(InfiniteSource(materialize=materialize, seed=j))
        sender_sockets.append(sock)

    if imp is not None and imp.plan is not None:
        injector = FaultInjector(sim, machine, imp.plan)
        injector.arm()
        machine.fault_injector = injector
    return sim, machine, clients, sender_sockets


def bind_observation(obs, sim, machine, senders, horizon: float) -> None:
    """Wire an active observation into a freshly built rig.

    Registers the machine's stat fields and the senders' protocol state into
    the metrics registry (callback gauges — nothing is written twice) and
    arms the time-series sampler up to ``horizon``.  Works for every queue
    count and for the Xen rig alike.
    """
    if obs is None:
        return
    if obs.metrics is not None:
        bind_machine(obs.metrics, machine)
        bind_connections(obs.metrics, [sock.conn for sock in senders])
    interval = obs_runtime.config().sample_interval
    if interval is not None:
        sampler = obs.make_sampler(sim, interval)
        bind_standard_probes(sampler, machine, senders)
        sampler.start(horizon=horizon)


def bind_ledger(obs, warmup: float, port_classes) -> None:
    """Register flow classes and the warmup/measure phases on a run's ledger.

    Call before ``sim.run`` so every charge lands in a phase; a no-op when
    the observation (or its ledger) is off.
    """
    if obs is None or obs.ledger is None:
        return
    led = obs.ledger
    led.port_class.update(port_classes)
    led.set_phases([("warmup", 0.0), ("measure", warmup)])


def stamp_ledger_measurement(obs, delta, bytes_rx: int) -> None:
    """Record the measurement-window profiler counts on the ledger, so the
    differential profiler can normalize per-category cycles per packet."""
    if obs is None or obs.ledger is None:
        return
    obs.ledger.meta["measure"] = {
        "network_packets": delta.network_packets,
        "host_packets": delta.host_packets,
        "bytes": bytes_rx,
    }


def run_stream_experiment(
    config: SystemConfig,
    opt: OptimizationConfig,
    n_connections: Optional[int] = None,
    duration: float = 0.30,
    warmup: float = 0.15,
    impairments: Optional[ImpairmentConfig] = None,
    queues: int = 1,
    steering: Union[str, SteeringPolicy] = "rss",
) -> ThroughputResult:
    """Run the streaming benchmark and measure over [warmup, warmup+duration]."""
    if queues == 1:
        label = f"{config.name}/{'opt' if opt.receive_aggregation else 'base'}"
    else:
        label = f"{config.name}/mq{queues}"
    with obs_runtime.observe(label) as obs:
        result = _run_stream_observed(
            config, opt, n_connections, duration, warmup, obs, impairments,
            queues, steering,
        )
        if obs is not None:
            obs.meta.update(system=result.system, optimized=result.optimized)
            if obs.sampler is not None:
                result.series = obs.sampler.to_json()
    return result


def _run_stream_observed(
    config: SystemConfig,
    opt: OptimizationConfig,
    n_connections: Optional[int],
    duration: float,
    warmup: float,
    obs,
    impairments: Optional[ImpairmentConfig],
    queues: int,
    steering,
) -> ThroughputResult:
    sim, machine, clients, senders = build_stream_rig(
        config, opt, n_connections, impairments=impairments, queues=queues,
        steering=steering,
    )
    bind_observation(obs, sim, machine, senders, horizon=warmup + duration)
    bind_ledger(obs, warmup, {SERVER_PORT: "stream"})

    sim.run(until=warmup)
    profile0 = _merged_snapshot(machine, sim.now)
    busy0 = machine.total_busy_cycles()
    bytes0 = _server_bytes(machine)
    drops0 = machine.total_ring_drops()
    rtx0 = _sender_retransmits(senders)

    sim.run(until=warmup + duration)
    profile1 = _merged_snapshot(machine, sim.now)
    delta = profile1.diff(profile0)
    bytes_rx = _server_bytes(machine) - bytes0
    busy = machine.total_busy_cycles() - busy0
    # Utilization against the whole package: every CPU's worth of cycles.
    capacity = duration * machine.cpus[0].freq_hz * len(machine.cpus)
    utilization = min(1.0, busy / capacity)
    n_pkts = max(1, delta.network_packets)
    stamp_ledger_measurement(obs, delta, bytes_rx)

    system = config.name if queues == 1 else f"{config.name}/mq{queues}-{machine.steering.name}"
    return ThroughputResult(
        system=system,
        optimized=opt.receive_aggregation,
        throughput_mbps=bytes_rx * 8 / duration / 1e6,
        cpu_utilization=utilization,
        duration_s=duration,
        bytes_received=bytes_rx,
        network_packets=delta.network_packets,
        host_packets=delta.host_packets,
        acks_sent=delta.acks_sent,
        aggregation_degree=delta.network_packets / max(1, delta.host_packets),
        cycles_per_packet=delta.total_cycles / n_pkts,
        breakdown={cat: cyc / n_pkts for cat, cyc in delta.cycles.items()},
        ring_drops=machine.total_ring_drops() - drops0,
        retransmits=_sender_retransmits(senders) - rtx0,
        profile=delta,
        events_fired=sim.events_fired,
    )


def _merged_snapshot(machine, time: float):
    snap = machine.merged_profile()
    snap.time = time
    return snap


def _server_bytes(machine) -> int:
    return sum(sock.bytes_received for sock in machine.kernel.sockets.values())


def _sender_retransmits(senders) -> int:
    return sum(sock.conn.stats.retransmits for sock in senders)
