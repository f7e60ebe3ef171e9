"""What the benchmark runs and what it expects, as plain data.

Nothing here imports the simulator, so the orchestrator (``run.py``) can
validate arguments and plan runs without paying, or depending on, the
``import repro`` that ``setup_s`` measures.  Simulation windows are in
simulated seconds; every host-time figure is measured elsewhere.
"""

from __future__ import annotations

#: Seed a workload uses when its inputs are random.  ``None`` marks a
#: workload whose inputs are fixed (the Figure 7 mix has no random input).
DEFAULT_SEEDS = {
    "stream_mix": None,
    # ManyConnWorkload's own default root seed.
    "many_conn_10k": 42,
    # FaultPlan's own default seed.
    "reorder_repair": 20080622,
}
WORKLOADS = tuple(DEFAULT_SEEDS)

#: Seeds whose fingerprints are pinned in pins.json besides the defaults.
#: Any other seed is checked by the stream invariants and by every run of
#: it agreeing exactly.
EXTRA_PINNED_SEEDS = tuple(range(0, 11))

#: (warmup_s, end_s) of simulated time per workload.  Results are
#: measured over [warmup, end]; host time covers [0, end].
WINDOWS = {
    "stream_mix": (0.02, 0.04),
    "many_conn_10k": (0.03, 0.06),
    # The fault plan starts at 50 ms; the run ends just after the RTO the
    # loss burst forces (~0.31 s) and its retransmission.  Running on into
    # the slow-start ramp would make host time depend on the seed.
    "reorder_repair": (0.03, 0.33),
}

#: Simulated seconds per timed slice of an untraced run: each slice takes
#: some tens of milliseconds of host time (see run.py's ``reference_wall``).
STEPS = {
    "stream_mix": 0.001,
    "many_conn_10k": 0.001,
    "reorder_repair": 0.005,
}

#: Layer -> entry points wrapped by the traced run, as (module, class,
#: methods).  A class entry also wraps every loaded subclass that
#: overrides the method.  ``class`` None wraps a module-level function as
#: that module looks it up (``driver/e1000.py`` imports
#: ``expand_template`` by name, so wrapping it in ``core.ack_offload``
#: would bind to nothing).  ``E1000Driver._isr`` is the CPU task that
#: ``on_interrupt`` queues; without it the driver's receive work would be
#: reported as dispatch.
LAYERS = {
    "sim.engine": [
        ("repro.sim.engine", "Simulator", ("at", "schedule", "post", "call_at")),
        ("repro.sim.engine", "Event", ("cancel",)),
    ],
    "sim.dispatch": [("repro.sim.engine", "Simulator", ("run",))],
    "sim.link": [("repro.sim.link", "Link", ("send", "_deliver", "_deliver_batch"))],
    "nic": [("repro.nic.nic", "Nic", ("rx_frame", "poll_ring"))],
    "nic.lro": [("repro.nic.lro", "LroEngine", ("accept", "flush"))],
    "driver": [
        ("repro.driver.e1000", "E1000Driver", ("on_interrupt", "_isr", "tx", "tx_template")),
    ],
    "core.aggregation": [
        ("repro.core.aggregation", "AggregationEngine", ("enqueue", "run")),
    ],
    "core.ack_offload": [("repro.driver.e1000", None, ("expand_template",))],
    "faults.repair": [
        ("repro.faults.repair", "ReorderRepairBuffer", ("process", "flush")),
    ],
    "host.kernel": [
        ("repro.host.kernel", "Kernel", (
            "softirq_baseline", "softirq_aggregated", "deliver_host_skb",
            "app_drain", "send_acks", "send_packet",
        )),
    ],
    # Server-side connections only; the client side runs inside
    # ClientHost.rx and is counted as the sender.
    "tcp.receiver": [("repro.tcp.connection", "TcpConnection", ("on_segment",))],
    "tcp.sender": [("repro.host.client", "ClientHost", ("rx",))],
    "cpu": [("repro.cpu.cpu", "Cpu", ("consume", "submit"))],
    "buffers": [
        ("repro.buffers.pool", "BufferPool", ("alloc",)),
        ("repro.buffers.slab", "PacketSlab", ("acquire", "release")),
    ],
    "mem": [("repro.mem.hierarchy", "MemoryHierarchy", ("dma_place", "consume_skb"))],
    "mq": [
        ("repro.mq.steering", "SteeringPolicy", ("select",)),
        ("repro.mq.kernel", "MqKernel", ("run_aggregator",)),
    ],
    "xen": [
        ("repro.xen.driver_domain", "DriverDomain", ("softirq_baseline", "softirq_aggregated")),
    ],
    # Collector pauses, from gc.callbacks: calls = collections, self_s =
    # pause time (subtracted from whichever span the collection hit).
    "gc": [],
}

#: The entry point whose call count is the frame denominator.
FRAME_ENTRY = "Nic.rx_frame"

#: Layers each workload must bypass (zero calls) and must exercise.  A
#: wrapper that binds to nothing fails the second check; a layer that
#: runs where the workload's rationale says it should not fails the first.
BYPASS = {
    "stream_mix": ("faults.repair", "nic.lro"),
    "many_conn_10k": ("faults.repair", "nic.lro", "mem", "mq", "xen"),
    "reorder_repair": ("mem", "mq", "xen"),
}
EXERCISE = {w: tuple(l for l in LAYERS if l not in BYPASS[w]) for w in WORKLOADS}

# Every layer must be measured somewhere, or its wrappers prove nothing.
assert set(LAYERS) == set().union(*EXERCISE.values())

#: Counters read from public simulator state after a traced run.
COUNTERS = (
    "sim.events_per_frame",
    "core.aggregation.degree",
    "buffers.slab_recycled_frac",
    "nic.ring_drops",
    "tcp.retransmits",
    "faults.repair.holds",
)
