"""The netperf TCP_RR latency benchmark (paper §5.4, Table 1).

A client sends a request; the server under test answers each complete
request with one response; when the whole response has arrived the client
issues the next request.  The metric is transactions per second.
``client_overhead_s`` models the client machine's own kernel+application
turnaround (the paper's clients are real machines; ours are otherwise
cost-free) and is calibrated once so the *baseline* lands near the paper's
≈ 7900 req/s — the experiment then compares baseline vs. optimized under
identical settings.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from typing import List

from repro.host.configs import OptimizationConfig, SystemConfig
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig
from repro.workloads.results import LatencyResult
from repro.workloads.stream import build_rig, observed_run

SERVER_PORT = 5002

#: Client-machine turnaround per transaction (see module docstring).
DEFAULT_CLIENT_OVERHEAD_S = 80e-6


class RpcResponder:
    """Server side of one request/response connection: answers each
    complete request.

    The accepted socket's ``on_data_cb`` is this one slotted object, not a
    closure with a cell and a state dict; every response it sends is the
    rig's one response object.
    """

    __slots__ = ("request_bytes", "response", "received")

    def __init__(self, request_bytes: int, response: bytes):
        self.request_bytes = request_bytes
        self.response = response
        self.received = 0

    def __call__(self, sock, payload, length) -> None:
        self.received += length
        while self.received >= self.request_bytes:
            self.received -= self.request_bytes
            sock.send(self.response)


def rpc_server(request_bytes: int, response_bytes: int):
    """Server-side accept hook: a responder per accepted socket, all
    sending one shared response object."""
    response = b"r" * response_bytes

    def on_accept(server_sock) -> None:
        server_sock.on_data_cb = RpcResponder(request_bytes, response)

    return on_accept


class _RrClientApp:
    """Drives the request/response loop from the client side: one
    transaction per complete response."""

    def __init__(self, sim: Simulator, sock, request_size: int, response_size: int,
                 overhead_s: float):
        self.sim = sim
        self.sock = sock
        #: The one request object every transaction sends.
        self.request = b"q" * request_size
        self.response_size = response_size
        self.overhead_s = overhead_s
        self.transactions = 0
        self.rtt_samples: List[float] = []
        self._sent_at = 0.0
        self._received = 0
        sock.on_established_cb = lambda s: self._send_request()
        sock.on_data_cb = self._on_response

    def _send_request(self) -> None:
        self._sent_at = self.sim.now
        self.sock.send(self.request)

    def _on_response(self, sock, payload, length) -> None:
        self._received += length
        if self._received < self.response_size:
            return
        self._received -= self.response_size
        self.transactions += 1
        self.rtt_samples.append(self.sim.now - self._sent_at)
        self.sim.schedule(self.overhead_s, self._send_request)


def run_rr_experiment(
    config: SystemConfig,
    opt: OptimizationConfig,
    duration: float = 0.5,
    warmup: float = 0.1,
    request_size: int = 1,
    response_size: int = 1,
    client_overhead_s: float = DEFAULT_CLIENT_OVERHEAD_S,
) -> LatencyResult:
    """Run TCP_RR against the given system and measure transactions/second."""

    def request_response(sim, machine, clients):
        machine.listen(SERVER_PORT, rpc_server(request_size, response_size))
        sock = clients[0].connect(machine.ip, SERVER_PORT, config=TcpConfig(mss=config.mss))
        return _RrClientApp(sim, sock, request_size, response_size, client_overhead_s)

    one_client = dataclasses.replace(config, n_nics=1)
    label = f"{config.name}/{'opt' if opt.receive_aggregation else 'base'}/rr"
    with observed_run(
        label,
        partial(build_rig, one_client, opt, request_response),
        warmup,
        warmup + duration,
        {SERVER_PORT: "rr"},
    ) as rig:
        sim, app = rig.sim, rig.traffic
        sim.run(until=warmup)
        tx0 = app.transactions
        samples0 = len(app.rtt_samples)
        sim.run(until=warmup + duration)
    tx = app.transactions - tx0
    samples = app.rtt_samples[samples0:]
    mean_rtt = math.fsum(samples) / len(samples) if samples else 0.0

    return LatencyResult(
        system=config.name,
        optimized=opt.receive_aggregation,
        transactions=tx,
        duration_s=duration,
        mean_rtt_s=mean_rtt,
    )
