"""The receive streaming microbenchmark (paper §5.1), and the one rig builder.

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

Every experiment's rigs come from :func:`build_rig` (simulator, receiver,
one client per NIC; the caller attaches its own traffic) and every measured
run goes through :func:`observed_run`, which builds its rig inside the run's
observation and binds the collectors to it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.faults.injector import FaultInjector
from repro.faults.plan import ImpairmentConfig
from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.host.machine import ReceiverMachine
from repro.mq.steering import SteeringPolicy
from repro.net.addresses import ip_from_str
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import bind_connections, bind_machine
from repro.obs.runtime import Observation
from repro.obs.sampler import bind_standard_probes
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource
from repro.workloads.results import ThroughputResult

SERVER_PORT = 5001


def build_rig(
    config: SystemConfig,
    opt: OptimizationConfig,
    attach: Callable[[Simulator, Any, List[ClientHost]], Any],
    queues: int = 1,
    steering: Union[str, SteeringPolicy] = "rss",
    impairments: Optional[ImpairmentConfig] = None,
    batch_window_s: float = 0.0,
) -> Tuple[Simulator, Any, List[ClientHost], Any]:
    """Make a rig's simulator, receiver and clients, then attach its traffic.

    The one place a ``Simulator``, a receiver machine (native or Xen, at
    10.0.0.1) and its ``ClientHost``s are made.  Client *i* of
    ``config.n_nics`` is ``client{i}`` at 10.0.1.(*i*+1) with ISS base
    ``1000 + i``, on a link of its own (batched by ``batch_window_s``).
    ``attach(sim, machine, clients)`` then listens and connects whatever
    the caller's workload needs; it returns ``(sim, machine, clients,
    attach's result)``.

    ``queues``/``steering`` pick the receive queues per NIC and the
    multi-queue steering policy (see :class:`~repro.host.machine.ReceiverMachine`).
    ``impairments`` applies its drop/reorder/dup probabilities to every
    inbound link (one seeded stream per link) and, once the traffic is
    attached, arms its :class:`~repro.faults.plan.FaultPlan` against the
    machine (kept as ``machine.fault_injector`` for post-run analysis).
    """
    sim = Simulator()
    ip = ip_from_str("10.0.0.1")
    if config.is_xen:
        if queues > 1:
            raise ValueError(
                f"the Xen pipeline has one receive path; queues={queues} "
                "needs a native config"
            )
        from repro.xen.machine import XenReceiverMachine

        machine = XenReceiverMachine(sim, config, opt, ip=ip)
    else:
        machine = ReceiverMachine(sim, config, opt, queues=queues, steering=steering, ip=ip)

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
                batch_window_s=batch_window_s,
            )
        else:
            machine.add_client(client, batch_window_s=batch_window_s)
        clients.append(client)

    traffic = attach(sim, machine, clients)
    if imp is not None and imp.plan is not None:
        injector = FaultInjector(sim, machine, imp.plan)
        injector.arm()
        machine.fault_injector = injector
    return sim, machine, clients, traffic


@dataclass
class Rig:
    """One built rig, and the observation it was built in (None when off)."""

    sim: Simulator
    machine: Any
    clients: List[ClientHost]
    #: What the caller's ``attach`` returned: its senders, app or driver.
    traffic: Any
    obs: Optional[Observation]

    @property
    def system(self) -> str:
        """The config's name; a multi-queue machine adds its queue count
        and steering policy."""
        machine = self.machine
        if machine.steering is None:
            return machine.config.name
        return f"{machine.config.name}/mq{machine.queues}-{machine.steering.name}"

    def server_bytes(self) -> int:
        """Bytes the receiver's sockets have delivered so far."""
        return sum(sock.bytes_received for sock in self.machine.kernel.sockets.values())

    def measured(self, delta, bytes_rx: int) -> None:
        """Record the measurement window's profiler counts on the ledger, so
        the differential profiler can normalize cycles per packet."""
        if self.obs is not None and self.obs.ledger is not None:
            self.obs.ledger.meta["measure"] = {
                "network_packets": delta.network_packets,
                "host_packets": delta.host_packets,
                "bytes": bytes_rx,
            }


@contextmanager
def observed_run(
    label: str,
    build: Callable[[], Tuple[Simulator, Any, List[ClientHost], Any]],
    warmup: float,
    horizon: float,
    port_classes: Dict[int, str],
) -> Iterator[Rig]:
    """Build one run's rig inside its observation and watch it.

    ``build()`` returns :func:`build_rig`'s tuple.  With observation on,
    the machine and every connection its clients have opened by then go
    into the metrics registry (callback gauges) and the sampler, which
    samples up to ``horizon``; the ledger's flows are ``port_classes`` and
    its phases ``warmup`` from 0 and ``measure`` from ``warmup``; and the
    run's ``meta`` records its system and whether it is optimized.  With
    observation off this builds the rig and nothing else.
    """
    with obs_runtime.observe(label) as obs:
        rig = Rig(*build(), obs)
        if obs is not None:
            machine = rig.machine
            conns = [conn for client in rig.clients for conn in client.connections.values()]
            if obs.metrics is not None:
                bind_machine(obs.metrics, machine)
                bind_connections(obs.metrics, conns)
            interval = obs_runtime.config().sample_interval
            if interval is not None:
                sampler = obs.make_sampler(rig.sim, interval)
                bind_standard_probes(sampler, machine, conns)
                sampler.start(horizon=horizon)
            if obs.ledger is not None:
                obs.ledger.port_class.update(port_classes)
                obs.ledger.set_phases([("warmup", 0.0), ("measure", warmup)])
            obs.meta.update(system=rig.system, optimized=machine.opt.receive_aggregation)
        yield rig


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

    ``n_connections`` (default one per NIC) sender sockets connect to
    :data:`SERVER_PORT`, round-robin over the clients, each streaming an
    endless source; the rest is :func:`build_rig`'s.

    ``materialize`` makes source *j* carry its real deterministic byte
    pattern (seed ``j``) so receivers can verify payload content end to end;
    throughput runs keep the default length-only segments.
    """

    def streams(sim, machine, clients):
        machine.listen(SERVER_PORT)
        senders = []
        for j in range(len(clients) if n_connections is None else n_connections):
            tcp_cfg = TcpConfig(mss=config.mss, materialize_payload=materialize)
            sock = clients[j % len(clients)].connect(machine.ip, SERVER_PORT, config=tcp_cfg)
            sock.conn.attach_source(InfiniteSource(materialize=materialize, seed=j))
            senders.append(sock)
        return senders

    return build_rig(
        config, opt, streams, queues=queues, steering=steering, impairments=impairments
    )


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
    build = partial(
        build_stream_rig, config, opt, n_connections, impairments,
        queues=queues, steering=steering,
    )
    with observed_run(label, build, warmup, warmup + duration, {SERVER_PORT: "stream"}) as rig:
        sim, machine, senders = rig.sim, rig.machine, rig.traffic
        sim.run(until=warmup)
        profile0 = _merged_snapshot(machine, sim.now)
        busy0 = machine.total_busy_cycles()
        bytes0 = rig.server_bytes()
        drops0 = machine.total_ring_drops()
        rtx0 = _sender_retransmits(senders)

        sim.run(until=warmup + duration)
        profile1 = _merged_snapshot(machine, sim.now)
        delta = profile1.diff(profile0)
        bytes_rx = rig.server_bytes() - bytes0
        busy = machine.total_busy_cycles() - busy0
        # Utilization against the whole package: every CPU's worth of cycles.
        capacity = duration * machine.cpus[0].freq_hz * len(machine.cpus)
        utilization = min(1.0, busy / capacity)
        n_pkts = max(1, delta.network_packets)
        rig.measured(delta, bytes_rx)

        result = ThroughputResult(
            system=rig.system,
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
        if rig.obs is not None and rig.obs.sampler is not None:
            result.series = rig.obs.sampler.to_json()
    return result


def _merged_snapshot(machine, time: float):
    snap = machine.merged_profile()
    snap.time = time
    return snap


def _sender_retransmits(senders) -> int:
    return sum(sock.conn.stats.retransmits for sock in senders)
