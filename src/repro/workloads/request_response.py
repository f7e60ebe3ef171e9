"""The netperf TCP_RR latency benchmark (paper §5.4, Table 1).

A client sends a one-byte request; the server under test responds with one
byte; on receiving the response the client immediately issues the next
request.  The metric is transactions per second.  ``client_overhead_s``
models the client machine's own kernel+application turnaround (the paper's
clients are real machines; ours are otherwise cost-free) and is calibrated
once so the *baseline* lands near the paper's ≈ 7900 req/s — the experiment
then compares baseline vs. optimized under identical settings.
"""

from __future__ import annotations

import math
from typing import List

from repro.host.client import ClientHost
from repro.host.configs import OptimizationConfig, SystemConfig
from repro.workloads.stream import make_receiver
from repro.net.addresses import ip_from_str
from repro.sim.engine import Simulator
from repro.tcp.connection import TcpConfig
from repro.workloads.results import LatencyResult

SERVER_PORT = 5002

#: Client-machine turnaround per transaction (see module docstring).
DEFAULT_CLIENT_OVERHEAD_S = 80e-6


class _RrClientApp:
    """Drives the request/response loop from the client side."""

    def __init__(self, sim: Simulator, sock, request_size: int, overhead_s: float):
        self.sim = sim
        self.sock = sock
        self.request_size = request_size
        self.overhead_s = overhead_s
        self.transactions = 0
        self.rtt_samples: List[float] = []
        self._sent_at = 0.0
        sock.on_established_cb = lambda s: self._send_request()
        sock.on_data_cb = self._on_response

    def _send_request(self) -> None:
        self._sent_at = self.sim.now
        self.sock.send(b"q" * self.request_size)

    def _on_response(self, sock, payload, length) -> None:
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
    sim = Simulator()
    machine = make_receiver(sim, config, opt, ip=ip_from_str("10.0.0.1"))

    def on_accept(server_sock) -> None:
        server_sock.on_data_cb = lambda s, payload, length: s.send(b"r" * response_size)

    machine.listen(SERVER_PORT, on_accept)

    client = ClientHost(sim, ip_from_str("10.0.1.1"), name="rr-client")
    machine.add_client(client)
    sock = client.connect(machine.ip, SERVER_PORT, config=TcpConfig(mss=config.mss))
    app = _RrClientApp(sim, sock, request_size, client_overhead_s)

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
