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

An endpoint holds only what its connection uses.  A mouse is its
connection's socket (a :class:`~repro.tcp.socket.TcpSocket` subclass), a
server connection's responder is one slotted object, and every request
and response is one shared object that send buffers hold by reference
(:class:`~repro.tcp.source.ByteSource` copies no ``bytes`` write).

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
from functools import partial
from typing import List, Optional

from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.sim.rng import SeededRng
from repro.tcp.connection import TcpConfig
from repro.tcp.socket import TcpSocket
from repro.tcp.source import InfiniteSource
from repro.workloads.request_response import rpc_server
from repro.workloads.stream import build_rig, observed_run

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


class _MiceApp(TcpSocket):
    """Client side of one short-RPC connection, as that connection's socket.

    The mouse overrides the socket's ``on_established``/``on_data`` instead
    of hanging bound-method callbacks on a socket of its own: one object per
    connection.  It counts response bytes and keeps none of them (a
    length-only mouse reads nothing), and every request it sends is the
    driver's one request object, which its send buffer holds by reference.

    ``transactions_limit`` is None for resident mice (loop forever) or a
    count for churned connections, which close afterwards.  The mouse's
    think-time stream, ``many/mouse{index}``, is derived on its first draw:
    most mice of a short run never finish a transaction, and a seeded
    generator is about 2.5 KB.  Deriving consumes nothing from the root
    stream, so every draw is the same whenever it is made.
    """

    __slots__ = ("driver", "index", "rng", "transactions", "transactions_limit", "_received")

    def __init__(self, conn, driver: "ManyConnectionDriver", index: int,
                 transactions_limit: Optional[int] = None):
        super().__init__(conn)
        self.driver = driver
        self.index = index
        self.rng: Optional[SeededRng] = None
        self.transactions = 0
        self.transactions_limit = transactions_limit
        self._received = 0

    def on_established(self, conn) -> None:
        self.established = True
        self._send_request()

    def _send_request(self) -> None:
        self.send(self.driver.request)

    def on_data(self, conn, payload, length) -> None:
        self.bytes_received += length
        conn.mark_read(length)  # consumed at once, as TcpSocket.on_data does
        driver = self.driver
        self._received += length
        if self._received < driver.wl.rpc_response_bytes:
            return
        self._received = 0
        self.transactions += 1
        limit = self.transactions_limit
        if limit is not None and self.transactions >= limit:
            self.close()
            driver._on_closed(self)
            return
        rng = self.rng
        if rng is None:
            rng = self.rng = driver.rng.derive(f"mouse{self.index}")
        think = rng.expovariate(1.0 / driver.wl.rpc_think_mean_s)
        # The function and its mouse, not a bound method: nothing the event
        # heap holds is a method of a mouse.
        driver.sim.post(think, _MiceApp._send_request, self)


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
        #: The one request object every mouse sends.
        self.request = b"q" * wl.rpc_request_bytes
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
        mouse = client.connect(
            self.machine.ip, RPC_PORT, config=self._tcp_config,
            app=lambda conn: _MiceApp(conn, self, index, limit),
        )
        self.mice.append(mouse)
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
    wl = workload if workload is not None else ManyConnWorkload()

    def population(sim, machine, clients):
        machine.listen(ELEPHANT_PORT)
        machine.listen(RPC_PORT, rpc_server(wl.rpc_request_bytes, wl.rpc_response_bytes))
        return ManyConnectionDriver(sim, machine, clients, wl)

    return build_rig(config, opt, population, batch_window_s=wl.batch_window_s)


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
    wl = workload if workload is not None else ManyConnWorkload()
    with observed_run(
        f"{config.name}/many{wl.n_connections}",
        partial(build_many_connection_rig, config, opt, wl),
        warmup,
        warmup + duration,
        {ELEPHANT_PORT: "elephant", RPC_PORT: "rpc"},
    ) as rig:
        sim, machine, driver = rig.sim, rig.machine, rig.traffic
        driver.start()

        sim.run(until=warmup)
        bytes0 = rig.server_bytes()
        tx0 = driver.transactions
        sim.run(until=warmup + duration)
        bytes_rx = rig.server_bytes() - bytes0

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
    return result, (sim, machine, rig.clients, driver)
