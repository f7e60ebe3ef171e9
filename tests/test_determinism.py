"""Determinism regression: an experiment's rows must match their pinned
digest (tests/golden/rows.json) after whatever ran before it in this
process, and two cold rigs must fire an identical ``events_fired`` count.

This is the contract every fast-path change must preserve (engine heap
layout, template packets, interned profiler categories): optimizations may
change *how fast* the simulator runs, never *what* it computes.  Running
after other work in one process also catches leaked module-level state
(template caches, category interning, RNG reuse) that a single cold run
would miss.
"""

from __future__ import annotations

from repro.core.config import OptimizationConfig
from repro.experiments.runner import run_experiment
from repro.host.configs import linux_up_config
from repro.workloads.stream import build_stream_rig

from tests.conftest import assert_rows_match_pin


def test_figure03_quick_is_deterministic():
    assert_rows_match_pin(
        "figure3", run_experiment("figure3", quick=True),
        "nondeterminism or state leaked from earlier runs in this process",
    )


def test_stream_rig_events_fired_is_deterministic():
    """Two cold rigs must fire the same events and deliver the same bytes."""
    outcomes = []
    for _ in range(2):
        sim, machine, _clients, _senders = build_stream_rig(
            linux_up_config(), OptimizationConfig.optimized()
        )
        sim.run(until=0.05)
        bytes_rx = sum(
            sock.bytes_received for sock in machine.kernel.sockets.values()
        )
        outcomes.append((sim.events_fired, bytes_rx))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] > 0
    assert outcomes[0][1] > 0
