"""Extension: TSO — the transmit-side analogue (paper §1).

The paper motivates its receive-side work by analogy to TCP Segmentation
Offload: "Our optimizations are similar in spirit to the use of TCP Segment
Offload (TSO) for improving transmit side performance."  This study
implements TSO in the simulated driver/NIC and measures its effect on a
serving workload (small requests, large responses — a web/file server), so
the transmit-side analogue can be compared with the receive-side pair.

Metric: server CPU cycles per transaction as the response size grows.  With
TSO the stack traverses once per ~64 KiB send instead of once per MSS; the
per-segment cost collapses into a cheap driver-level split — exactly the
structure Receive Aggregation creates on the other side.
"""

from __future__ import annotations

import dataclasses
from functools import partial

from repro.core.config import OptimizationConfig
from repro.experiments.base import ExperimentResult
from repro.host.configs import linux_up_config
from repro.tcp.connection import TcpConfig
from repro.workloads.request_response import rpc_server
from repro.workloads.stream import build_rig, observed_run

PAPER_EXPECTED = {"tso_cuts_tx_cycles_for_large_responses": True}

RESPONSE_SIZES = (1448, 16 * 1024, 64 * 1024)


def _serve_once(tso: bool, response_size: int, duration: float):
    """RR with large responses; returns (transactions/s, cycles/transaction)."""
    config = dataclasses.replace(linux_up_config(), n_nics=1, tso=tso)
    transactions = [0]

    def on_response(s, payload, length):
        # One transaction completes when the full response has arrived.
        on_response.received += length
        if on_response.received >= response_size:
            on_response.received -= response_size
            transactions[0] += 1
            s.send(b"q")

    on_response.received = 0

    def serve(sim, machine, clients):
        machine.listen(5001, rpc_server(1, response_size))
        sock = clients[0].connect(
            machine.ip, 5001, config=TcpConfig(mss=config.mss, rcv_buf=1 << 20, window_scale=5)
        )
        sock.on_established_cb = lambda s: s.send(b"q")
        sock.on_data_cb = on_response

    warmup = 0.05
    label = f"{config.name}/{'tso' if tso else 'no-tso'}/{response_size}B"
    with observed_run(
        label,
        partial(build_rig, config, OptimizationConfig.baseline(), serve),
        warmup,
        warmup + duration,
        {5001: "rr"},
    ) as rig:
        sim, machine = rig.sim, rig.machine
        sim.run(until=warmup)
        tx0, busy0 = transactions[0], machine.cpu.busy_cycles
        sim.run(until=warmup + duration)
    tx = transactions[0] - tx0
    busy = machine.cpu.busy_cycles - busy0
    return tx / duration, busy / max(1, tx)


def run(quick: bool = False) -> ExperimentResult:
    duration = 0.1 if quick else 0.3
    rows = []
    for size in RESPONSE_SIZES:
        off_rate, off_cycles = _serve_once(False, size, duration)
        on_rate, on_cycles = _serve_once(True, size, duration)
        rows.append({
            "response KB": size / 1024,
            "req/s no TSO": off_rate,
            "req/s TSO": on_rate,
            "cycles/txn no TSO": off_cycles,
            "cycles/txn TSO": on_cycles,
            "tx cycles saved %": 100 * (1 - on_cycles / off_cycles),
        })
    return ExperimentResult(
        experiment_id="extension_tso",
        title="TSO: the transmit-side analogue of Receive Aggregation",
        paper_reference="§1 (TSO analogy)",
        columns=["response KB", "req/s no TSO", "req/s TSO",
                 "cycles/txn no TSO", "cycles/txn TSO", "tx cycles saved %"],
        rows=rows,
        paper_expected=PAPER_EXPECTED,
        notes=(
            "Serving workload (1-byte request, large response).  TSO's savings "
            "grow with the response size — one stack traversal per large send "
            "instead of per MSS — mirroring what Receive Aggregation does for "
            "the receive path."
        ),
    )
