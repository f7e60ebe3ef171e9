"""OProfile-analogue: per-category cycle accounting.

Every simulated kernel routine charges its cycles here, tagged with one of
the :class:`~repro.cpu.categories.Category` names.  Experiments snapshot the
profiler before and after a measurement window and report
*cycles-per-network-packet* breakdowns — the Y axis of the paper's figures
3, 4, 6, 8, 9, 10, and 11.

``add`` is on the per-packet hot path (several charges per packet, millions
per run), so categories are interned to integer indices once, globally, and
each profiler keeps a flat list of floats indexed by category.  The mapping
view (``cycles``) is reconstructed only when read — snapshots, tests, and
figure code see the same dict the old dict-backed implementation produced,
in the same first-charge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List

#: Global category interning table: name -> index, shared by all profilers.
_CATEGORY_INDEX: Dict[str, int] = {}
#: Interned names, indexed by category index.
_CATEGORY_NAMES: List[str] = []


def _intern_category(category: str) -> int:
    idx = _CATEGORY_INDEX.get(category)
    if idx is None:
        idx = len(_CATEGORY_NAMES)
        _CATEGORY_INDEX[category] = idx
        _CATEGORY_NAMES.append(category)
    return idx


@dataclass
class ProfileSnapshot:
    """Immutable copy of profiler state at one instant."""

    cycles: Dict[str, float]
    network_packets: int
    host_packets: int
    acks_sent: int
    time: float

    def diff(self, earlier: "ProfileSnapshot") -> "ProfileSnapshot":
        """Counters accumulated between ``earlier`` and this snapshot."""
        # First-charge order, so sums over ``cycles`` do not follow the
        # string-hash seed.
        keys = dict.fromkeys([*self.cycles, *earlier.cycles])
        return ProfileSnapshot(
            cycles={k: self.cycles.get(k, 0.0) - earlier.cycles.get(k, 0.0) for k in keys},
            network_packets=self.network_packets - earlier.network_packets,
            host_packets=self.host_packets - earlier.host_packets,
            acks_sent=self.acks_sent - earlier.acks_sent,
            time=self.time - earlier.time,
        )

    @property
    def total_cycles(self) -> float:
        return math.fsum(self.cycles.values())

    def cycles_per_packet(self, order: Iterable[str]) -> Dict[str, float]:
        """Per-network-packet breakdown in the given category order."""
        n = max(self.network_packets, 1)
        return {cat: self.cycles.get(cat, 0.0) / n for cat in order}

    def share(self, category: str) -> float:
        """Fraction of total cycles spent in ``category`` (0..1)."""
        total = self.total_cycles
        if total <= 0:
            return 0.0
        return self.cycles.get(category, 0.0) / total

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, keyed by the same ``Category`` names the figure
        tables use (so traces, metrics, and breakdowns join cleanly)."""
        return {
            "cycles": dict(self.cycles),
            "network_packets": self.network_packets,
            "host_packets": self.host_packets,
            "acks_sent": self.acks_sent,
            "time": self.time,
        }


class Profiler:
    """Accumulates cycles per category plus packet counters."""

    __slots__ = ("_cycles", "_touched", "network_packets", "host_packets", "acks_sent")

    def __init__(self) -> None:
        #: Flat per-category accumulators, indexed by the interned index.
        self._cycles: List[float] = [0.0] * len(_CATEGORY_NAMES)
        #: Indices in first-charge order — preserves the key order the old
        #: dict-backed profiler exposed (figure code iterates ``cycles``).
        self._touched: List[int] = []
        #: Network-level data packets that entered receive processing.
        self.network_packets = 0
        #: Host-level packets delivered to the TCP layer (≤ network_packets
        #: when aggregation is on; their ratio is the aggregation degree).
        self.host_packets = 0
        #: ACK packets that left the host on the wire.
        self.acks_sent = 0

    def add(self, category: str, cycles: float) -> None:
        idx = _CATEGORY_INDEX.get(category)
        if idx is None:
            idx = _intern_category(category)
        c = self._cycles
        if idx >= len(c):
            c.extend([0.0] * (idx + 1 - len(c)))
        v = c[idx]
        c[idx] = v + cycles
        if v == 0.0:
            # First charge for this category (the steady state never takes
            # this branch — accumulated cycles only grow).
            touched = self._touched
            if idx not in touched:
                touched.append(idx)

    @property
    def cycles(self) -> Dict[str, float]:
        """Category -> cycles mapping, reconstructed in first-charge order."""
        c = self._cycles
        return {_CATEGORY_NAMES[i]: c[i] for i in self._touched}

    def snapshot(self, time: float) -> ProfileSnapshot:
        return ProfileSnapshot(
            cycles=self.cycles,
            network_packets=self.network_packets,
            host_packets=self.host_packets,
            acks_sent=self.acks_sent,
            time=time,
        )

    @property
    def aggregation_degree(self) -> float:
        """Average network packets per host packet (1.0 when no aggregation)."""
        if self.host_packets == 0:
            return 0.0
        return self.network_packets / self.host_packets

    def merged(self, others: Iterable["Profiler"]) -> ProfileSnapshot:
        """Combine this profiler with others into one snapshot (SMP sums)."""
        merged = Profiler()
        for prof in [self, *others]:
            for cat, cyc in prof.cycles.items():
                merged.add(cat, cyc)
            merged.network_packets += prof.network_packets
            merged.host_packets += prof.host_packets
            merged.acks_sent += prof.acks_sent
        return merged.snapshot(0.0)
