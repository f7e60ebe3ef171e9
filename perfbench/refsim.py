"""A fixed reference workload: host speed, measured the way the simulator runs.

On a shared host the speed of a Python process swings by up to 2x for
seconds to minutes at a time, as other tenants load the physical cores.
``worker.py`` therefore runs one ``probe()`` before every timed slice of
the simulation, and ``run.py`` reports the simulator's time in units of
this reference, scaled to seconds by ``PROBE_S``.

The reference is a small event-driven receive path in the simulator's
own idiom -- a heap of timestamped callbacks, objects with slots, bound
method calls, dict demux, ring lists, float arithmetic -- so host
interference slows it by about the factor it slows the simulator.  It
imports nothing from the simulator, so a change to the simulator does not
change it.  Never edit it: every ``wall_s`` and ``setup_s`` ever
reported is in its units.
"""

from __future__ import annotations

import heapq
import time

#: Nominal seconds of one ``probe()``: about its median in a quiet phase
#: on a 2-vCPU virtualised Xeon (Python 3.11.7).  It only scales the ratio
#: into seconds.
PROBE_S = 0.0012

#: Events one probe fires.
EVENTS = 1000


class Segment:
    __slots__ = ("flow", "seq", "length", "sent")

    def __init__(self, flow: int, seq: int, length: int, sent: float) -> None:
        self.flow = flow
        self.seq = seq
        self.length = length
        self.sent = sent


class Flow:
    __slots__ = ("snd_nxt", "snd_una", "rcv_nxt", "window", "acks", "rtt")

    def __init__(self) -> None:
        self.snd_nxt = 0
        self.snd_una = 0
        self.rcv_nxt = 0
        self.window = 8 * 1448
        self.acks = 0
        self.rtt = 0.0


class Sim:
    __slots__ = ("now", "heap", "seq")

    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.seq = 0

    def at(self, delay: float, fn, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, args))

    def run(self, events: int) -> None:
        heap = self.heap
        pop = heapq.heappop
        for _ in range(events):
            if not heap:
                return
            t, _seq, fn, args = pop(heap)
            self.now = t
            fn(*args)


class Receiver:
    """Ring, interrupt coalescing, per-flow aggregation, delayed ACKs."""

    def __init__(self, sim: Sim, flows: dict) -> None:
        self.sim = sim
        self.flows = flows
        self.ring: list = []
        self.armed = False
        self.bytes = 0

    def rx(self, seg: Segment) -> None:
        self.ring.append(seg)
        if not self.armed:
            self.armed = True
            self.sim.at(4e-6, self.interrupt)

    def interrupt(self) -> None:
        self.armed = False
        ring, self.ring = self.ring, []
        batches: dict = {}
        for seg in ring:
            batches.setdefault(seg.flow, []).append(seg)
        for key, segs in batches.items():
            flow = self.flows[key]
            for seg in segs:
                if seg.seq == flow.rcv_nxt:
                    flow.rcv_nxt += seg.length
                    self.bytes += seg.length
            self.sim.at(1e-6 * len(segs), self.ack, key, flow.rcv_nxt, segs[-1].sent)


class Sender:
    def __init__(self, sim: Sim, flows: dict, receiver: Receiver) -> None:
        self.sim = sim
        self.flows = flows
        self.receiver = receiver
        receiver.ack = self.on_ack

    def push(self, key: int) -> None:
        flow = self.flows[key]
        while flow.snd_nxt - flow.snd_una < flow.window:
            seg = Segment(key, flow.snd_nxt, 1448, self.sim.now)
            flow.snd_nxt += seg.length
            self.sim.at(1.2e-6 * (1 + key), self.receiver.rx, seg)

    def on_ack(self, key: int, ack: int, sent: float) -> None:
        flow = self.flows[key]
        if ack > flow.snd_una:
            flow.snd_una = ack
            flow.acks += 1
            flow.rtt = 0.875 * flow.rtt + 0.125 * (self.sim.now - sent)
        self.sim.at(2e-6, self.push, key)


def workload() -> int:
    """Run the reference for ``EVENTS`` events; return bytes received."""
    sim = Sim()
    flows = {key: Flow() for key in range(4)}
    receiver = Receiver(sim, flows)
    sender = Sender(sim, flows, receiver)
    for key in flows:
        sender.push(key)
    sim.run(EVENTS)
    return receiver.bytes


def probe() -> float:
    """Host seconds one run of the reference takes, now."""
    t0 = time.perf_counter()
    workload()
    return time.perf_counter() - t0
