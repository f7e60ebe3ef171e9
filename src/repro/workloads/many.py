"""Many-connection workload generator (scale regime, ROADMAP north star).

The paper's evaluation tops out at 16 streaming connections (Figure 12);
production receive paths serve tens of thousands.  This module generates the
traffic shape those regimes actually see, sized by one knob
(``n_connections``; ``tests/test_many_conn.py`` pins the 1k rig's event
count and footprint, and perfbench times the 10k rig):

* an **elephant/mice mix** — a small fraction of long-lived bulk streams
  (ACK-clocked, window-limited, like the streaming microbenchmark) over a
  large population of short-RPC connections;
* **short-RPC request/response** — each mouse sends a small request, the
  server answers, and the mouse thinks for an exponentially distributed
  pause before the next round (open-loop per connection);
* **open-loop Poisson connection arrivals** — fresh short-lived connections
  arrive at a configured rate, run a few transactions, and close (FIN/
  TIME_WAIT churn), independent of how loaded the receiver is.

Everything is driven by :class:`~repro.sim.rng.SeededRng` streams derived
from one root seed — two runs with the same workload config are identical
event-for-event.

Scale-rig engine features: links opt into batched delivery
(``batch_window_s``), the machines' packet slab recycles the per-segment
allocations, and the event heap's compaction keeps the per-connection
RTO/delack arm/cancel churn from growing the heap.  The slab is
bit-neutral (same events, same times); batching holds each frame at most
one window past its wire arrival — NIC interrupt moderation at the link
layer — so measured results differ microscopically from an unbatched rig
but stay deterministic for a given window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.net.addresses import ip_from_str
from repro.sim.rng import SeededRng
from repro.tcp.connection import TcpConfig
from repro.tcp.source import InfiniteSource
from repro.workloads.stream import make_receiver

#: Bulk streams sink here (pure receive-and-discard).
ELEPHANT_PORT = 5001
#: Short-RPC connections here (request in, response out).
RPC_PORT = 5003


@dataclass
class ManyConnWorkload:
    """Knobs for the generator; defaults give a credible datacenter mix."""

    #: Initial resident connection population (elephants + mice).
    n_connections: int = 1000
    #: Fraction of residents that are long-lived bulk streams.
    elephant_fraction: float = 0.05
    #: Mouse request size (bytes, materialized — small).
    rpc_request_bytes: int = 512
    #: Server response size (bytes, materialized — small).
    rpc_response_bytes: int = 2048
    #: Mean of the exponential think time between a mouse's transactions.
    rpc_think_mean_s: float = 0.010
    #: Open-loop Poisson arrival rate of *churning* connections (per
    #: second); 0 disables churn.
    arrival_rate_hz: float = 0.0
    #: Transactions a churned connection completes before closing.
    churn_transactions: int = 4
    #: Window over which the initial population's opens are staggered.
    stagger_s: float = 0.020
    #: Link delivery batching window (0 = per-frame events).
    batch_window_s: float = 25e-6
    #: Root seed; every stream (stagger, think times, arrivals) derives
    #: from it.
    seed: int = 42


@dataclass
class ManyConnResult:
    """Measured over [warmup, warmup + duration]."""

    system: str
    optimized: bool
    n_connections: int
    duration_s: float
    bytes_received: int
    throughput_mbps: float
    transactions: int
    connections_opened: int
    connections_closed: int
    events_fired: int
    #: Packet allocations avoided by the slab over the whole run (0 when
    #: recycling is disabled).
    allocations_saved: int


class _MiceApp:
    """Client side of one short-RPC connection.

    ``transactions_limit`` is None for resident mice (loop forever) or a
    count for churned connections, which close afterwards.
    """

    __slots__ = (
        "sim", "sock", "wl", "rng", "transactions", "transactions_limit",
        "_received", "on_done",
    )

    def __init__(self, sim, sock, wl: ManyConnWorkload, rng: SeededRng,
                 transactions_limit: Optional[int] = None, on_done=None):
        self.sim = sim
        self.sock = sock
        self.wl = wl
        self.rng = rng
        self.transactions = 0
        self.transactions_limit = transactions_limit
        self._received = 0
        self.on_done = on_done
        sock.on_established_cb = self._on_established
        sock.on_data_cb = self._on_response

    def _on_established(self, sock) -> None:
        self._send_request()

    def _send_request(self) -> None:
        self.sock.send(b"q" * self.wl.rpc_request_bytes)

    def _on_response(self, sock, payload, length) -> None:
        self._received += length
        if self._received < self.wl.rpc_response_bytes:
            return
        self._received = 0
        self.transactions += 1
        limit = self.transactions_limit
        if limit is not None and self.transactions >= limit:
            self.sock.close()
            if self.on_done is not None:
                self.on_done(self)
            return
        think = self.rng.expovariate(1.0 / self.wl.rpc_think_mean_s)
        self.sim.post(think, self._send_request)


class ManyConnectionDriver:
    """Owns the population: initial residents plus Poisson churn."""

    def __init__(self, sim, machine, clients: List[ClientHost], wl: ManyConnWorkload):
        self.sim = sim
        self.machine = machine
        self.clients = clients
        self.wl = wl
        self.rng = SeededRng(wl.seed, "many")
        #: Shared by every connection the population opens.
        self._tcp_config = TcpConfig(mss=machine.config.mss)
        self.mice: List[_MiceApp] = []
        self.elephants = []
        self.connections_opened = 0
        self.connections_closed = 0
        self._next_client = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Stagger the initial population's opens, then start churn."""
        wl = self.wl
        n_eleph = int(wl.n_connections * wl.elephant_fraction)
        stagger = self.rng.derive("stagger")
        for i in range(wl.n_connections):
            delay = stagger.uniform(0.0, wl.stagger_s)
            if i < n_eleph:
                self.sim.post(delay, self._open_elephant, i)
            else:
                self.sim.post(delay, self._open_mouse, i)
        if wl.arrival_rate_hz > 0:
            self._arrivals = self.rng.derive("arrivals")
            self._schedule_next_arrival()

    def _pick_client(self) -> ClientHost:
        client = self.clients[self._next_client % len(self.clients)]
        self._next_client += 1
        return client

    def _open_elephant(self, index: int) -> None:
        client = self._pick_client()
        sock = client.connect(self.machine.ip, ELEPHANT_PORT, config=self._tcp_config)
        sock.conn.attach_source(InfiniteSource(seed=index))
        self.elephants.append(sock)
        self.connections_opened += 1

    def _open_mouse(self, index: int, limit: Optional[int] = None) -> None:
        client = self._pick_client()
        sock = client.connect(self.machine.ip, RPC_PORT, config=self._tcp_config)
        app = _MiceApp(
            self.sim, sock, self.wl, self.rng.derive(f"mouse{index}"),
            transactions_limit=limit, on_done=self._on_closed,
        )
        self.mice.append(app)
        self.connections_opened += 1

    def _on_closed(self, app: _MiceApp) -> None:
        self.connections_closed += 1

    # ------------------------------------------------------------------
    # open-loop Poisson churn
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        gap = self._arrivals.expovariate(self.wl.arrival_rate_hz)
        self.sim.post(gap, self._arrive)

    def _arrive(self) -> None:
        index = self.connections_opened
        self._open_mouse(10_000_000 + index, limit=self.wl.churn_transactions)
        # Open-loop: the next arrival is independent of service progress.
        self._schedule_next_arrival()

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        return sum(app.transactions for app in self.mice)


def build_many_connection_rig(
    config: SystemConfig,
    opt: OptimizationConfig,
    workload: Optional[ManyConnWorkload] = None,
):
    """Assemble sim + server + clients + population driver (unstarted)."""
    from repro.sim.engine import Simulator

    wl = workload if workload is not None else ManyConnWorkload()
    sim = Simulator()
    machine = make_receiver(sim, config, opt, ip=ip_from_str("10.0.0.1"))
    machine.listen(ELEPHANT_PORT)
    machine.listen(RPC_PORT, _rpc_server(wl))

    clients: List[ClientHost] = []
    for i in range(config.n_nics):
        client = ClientHost(
            sim, ip_from_str(f"10.0.1.{i + 1}"), name=f"client{i}", iss_base=1000 + i
        )
        machine.add_client(client, batch_window_s=wl.batch_window_s)
        clients.append(client)

    driver = ManyConnectionDriver(sim, machine, clients, wl)
    return sim, machine, clients, driver


def _rpc_server(wl: ManyConnWorkload):
    """Server-side accept hook: answer each complete request."""
    request_bytes = wl.rpc_request_bytes
    response = b"r" * wl.rpc_response_bytes

    def on_accept(server_sock) -> None:
        state = {"received": 0}

        def on_data(sock, payload, length) -> None:
            state["received"] += length
            while state["received"] >= request_bytes:
                state["received"] -= request_bytes
                sock.send(response)

        server_sock.on_data_cb = on_data

    return on_accept


def run_many_connection_experiment(
    config: SystemConfig,
    opt: OptimizationConfig,
    workload: Optional[ManyConnWorkload] = None,
    duration: float = 0.10,
    warmup: float = 0.05,
) -> ManyConnResult:
    """Run the scale workload and measure over [warmup, warmup+duration]."""
    return run_many_connection_rig(config, opt, workload, duration, warmup)[0]


def run_many_connection_rig(
    config: SystemConfig,
    opt: OptimizationConfig,
    workload: Optional[ManyConnWorkload] = None,
    duration: float = 0.10,
    warmup: float = 0.05,
):
    """:func:`run_many_connection_experiment`, also returning the rig
    ``(sim, machine, clients, driver)`` as the run left it:
    ``(result, rig)``."""
    from repro.obs import runtime as obs_runtime
    from repro.workloads.stream import _server_bytes, bind_ledger, bind_observation

    wl = workload if workload is not None else ManyConnWorkload()
    with obs_runtime.observe(f"{config.name}/many{wl.n_connections}") as obs:
        sim, machine, clients, driver = build_many_connection_rig(config, opt, wl)
        bind_observation(obs, sim, machine, [], horizon=warmup + duration)
        bind_ledger(
            obs, warmup, {ELEPHANT_PORT: "elephant", RPC_PORT: "rpc"}
        )
        driver.start()

        sim.run(until=warmup)
        bytes0 = _server_bytes(machine)
        tx0 = driver.transactions
        sim.run(until=warmup + duration)
        bytes_rx = _server_bytes(machine) - bytes0
        if obs is not None:
            obs.meta.update(system=config.name, optimized=opt.receive_aggregation)

    slab = getattr(machine, "packet_slab", None)
    result = ManyConnResult(
        system=config.name,
        optimized=opt.receive_aggregation,
        n_connections=wl.n_connections,
        duration_s=duration,
        bytes_received=bytes_rx,
        throughput_mbps=bytes_rx * 8 / duration / 1e6,
        transactions=driver.transactions - tx0,
        connections_opened=driver.connections_opened,
        connections_closed=driver.connections_closed,
        events_fired=sim.events_fired,
        allocations_saved=slab.allocations_saved if slab is not None else 0,
    )
    return result, (sim, machine, clients, driver)
