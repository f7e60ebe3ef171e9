"""Per-node LLC/DRAM hierarchy with DDIO I/O ways.

The model prices the *source side* of the receive data path the way the
hardware does:

* NIC DMA writes land in the LLC of the queue's home node (DDIO), but only
  in a limited set of **I/O ways** — ``ddio_ways`` of ``n_ways``.  Each
  placed frame takes a *token* covering its cache lines; when the I/O ways
  overflow, the oldest live token is evicted (deterministic FIFO, which is
  what the pseudo-LRU of real I/O ways degenerates to under streaming DMA).
* When the copy (or zero-copy consume) reads the data, lines whose token is
  still resident are LLC hits; evicted or never-placed lines come from
  DRAM — at the local rate if the data's home node matches the consuming
  CPU's node, at the remote rate otherwise.
* The *destination side* of a copy pays RFO (read-for-ownership) line
  fills for the fraction of the application's buffer working set that does
  not fit in the LLC's non-I/O ways.  A sub-LLC working set writes into
  cache; a multi-LLC working set streams through DRAM, and per-byte copy
  cost comes back — the crossover `extension_zero_copy` measures.

Token lifecycle is *lazy*: frames dropped before delivery (ring-full,
checksum discards, LRO-absorbed duplicates) keep their tokens until
placement pressure evicts them — exactly how real I/O ways fill with dead
DMA data.  Occupancy is therefore bounded by the I/O-way capacity, and the
sanitizer audits conservation (``io_occupancy == sum(live token lines)``).

Defaults are calibrated so a warm, local, cache-resident copy charges
exactly what the flat :class:`~repro.cpu.cache.CacheModel` charges
(``llc_hit_cycles == sequential_miss_cycles[FULL]``); the hierarchy only
*diverges* from the flat model under I/O-way pressure, NUMA remoteness, or
a spilled destination working set.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

#: (warm_local, warm_remote, cold_local, cold_remote) line counts captured
#: when a delivered skb's payload is consumed from the hierarchy.
MemInfo = Tuple[int, int, int, int]


@dataclass
class MemConfig:
    """Parameters of the memory hierarchy (one per machine)."""

    #: NUMA nodes (1 = UMA; the mq rig splits CPUs/queues across nodes).
    nodes: int = 1
    #: Last-level cache size per node.
    llc_bytes: int = 2 * 1024 * 1024
    #: Cache associativity; occupancy is tracked way-granularly.
    n_ways: int = 16
    #: Ways DDIO may fill with DMA writes (Intel default: 2 of the LLC).
    ddio_ways: int = 2
    line_bytes: int = 64
    #: Reading one line that is still LLC-resident.  Equal to the flat
    #: model's full-prefetch per-line cost so a warm local copy is
    #: cycle-identical to the flat CacheModel.
    llc_hit_cycles: float = 30.0
    #: Reading one line from the *other* node's LLC (cross-socket snoop).
    remote_llc_hit_cycles: float = 90.0
    #: Reading one line from local DRAM (token evicted or never placed).
    dram_cycles_per_line: float = 120.0
    #: Reading one line from the remote node's DRAM.
    remote_dram_cycles_per_line: float = 190.0
    #: Destination-side read-for-ownership fill per line, paid for the
    #: fraction of the app buffer working set that spills out of the LLC.
    rfo_cycles_per_line: float = 120.0
    #: Application receive-buffer working set; 0 = fits in cache (the
    #: destination side writes into LLC, no RFO traffic).
    app_working_set_bytes: int = 0
    #: Cache lines of sk_buff metadata touched when the skb's descriptor
    #: pool lives on a different node than the consuming CPU.
    skb_touch_lines: int = 4

    # ------------------------------------------------------------------
    @property
    def io_capacity_lines(self) -> int:
        """Lines the DDIO I/O ways hold per node."""
        return (self.llc_bytes * self.ddio_ways) // (self.n_ways * self.line_bytes)

    @property
    def app_llc_bytes(self) -> int:
        """LLC capacity left to the application (non-I/O ways)."""
        return (self.llc_bytes * (self.n_ways - self.ddio_ways)) // self.n_ways


class MemNode:
    """One NUMA node's DDIO I/O-way state and counters."""

    __slots__ = (
        "index",
        "io_capacity_lines",
        "io_occupancy",
        "entries",
        "fifo",
        "ddio_placements",
        "io_evictions",
        "evicted_lines",
        "llc_hits",
    )

    def __init__(self, index: int, io_capacity_lines: int):
        self.index = index
        self.io_capacity_lines = io_capacity_lines
        #: Lines currently held by live tokens (== sum(entries.values())).
        self.io_occupancy = 0
        #: token id -> line count, insertion-ordered.
        self.entries: Dict[int, int] = {}
        #: Placement order; may hold stale ids of consumed tokens (skipped
        #: lazily on eviction).
        self.fifo: Deque[int] = deque()
        self.ddio_placements = 0
        #: Tokens evicted by placement pressure (their lines went cold).
        self.io_evictions = 0
        self.evicted_lines = 0
        #: Lines served from this node's LLC at consume time.
        self.llc_hits = 0


class MemoryHierarchy:
    """The machine-wide LLC/DRAM model (all nodes plus global counters)."""

    def __init__(self, config: MemConfig):
        if config.nodes < 1:
            raise ValueError(f"MemConfig needs >= 1 node, got {config.nodes}")
        if not 0 < config.ddio_ways < config.n_ways:
            raise ValueError(
                f"ddio_ways must be in (0, n_ways): {config.ddio_ways}/{config.n_ways}"
            )
        if config.line_bytes <= 0:
            raise ValueError(f"line_bytes must be positive, got {config.line_bytes}")
        self.config = config
        self.nodes: List[MemNode] = [
            MemNode(i, config.io_capacity_lines) for i in range(config.nodes)
        ]
        self._next_token = 0
        #: Lines fetched across the node interconnect (remote LLC or DRAM).
        self.remote_line_fetches = 0
        #: Lines fetched from DRAM (local or remote) because no live token
        #: covered them.
        self.dram_line_fetches = 0
        # Destination-side spill fraction: how much of the app working set
        # misses the non-I/O ways.  Precomputed — it is config-static.
        ws = config.app_working_set_bytes
        cap = config.app_llc_bytes
        self.dst_cold_fraction = 0.0 if ws <= cap else 1.0 - cap / ws

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def lines_of(self, nbytes: int) -> int:
        return math.ceil(nbytes / self.config.line_bytes)

    # ------------------------------------------------------------------
    # DMA side (called by RxQueue after a successful ring post)
    # ------------------------------------------------------------------
    def dma_place(self, pkt, node_index: int) -> None:
        """DDIO-place one DMA-completed frame into ``node_index``'s I/O ways."""
        lines = self.lines_of(pkt.wire_len)
        if lines <= 0:
            return
        node = self.nodes[node_index]
        cap = node.io_capacity_lines
        # A frame larger than the I/O ways degenerates to an immediate
        # self-eviction; clamp so occupancy stays bounded.
        lines = min(lines, cap)
        entries = node.entries
        fifo = node.fifo
        while node.io_occupancy + lines > cap and fifo:
            victim = fifo.popleft()
            victim_lines = entries.pop(victim, None)
            if victim_lines is None:
                continue  # stale id: token already consumed at delivery
            node.io_occupancy -= victim_lines
            node.io_evictions += 1
            node.evicted_lines += victim_lines
        token = self._next_token
        self._next_token += 1
        entries[token] = lines
        fifo.append(token)
        node.io_occupancy += lines
        node.ddio_placements += 1
        pkt.mem_token = (node_index, token)

    # ------------------------------------------------------------------
    # consume side (called by the kernel at skb delivery)
    # ------------------------------------------------------------------
    def consume_skb(self, skb, consumer_node: int) -> MemInfo:
        """Classify the skb's payload lines for the eventual copy/remap.

        Pops every fragment's token (the data leaves the I/O ways — its
        next reader is the copy loop, served from the core caches) and
        classifies its payload lines as warm (token still resident) or
        cold, local (home node == ``consumer_node``) or remote.
        """
        warm_local = warm_remote = cold_local = cold_remote = 0
        pkt = skb.head
        frags = skb.frags
        for i in range(-1, len(frags)):
            if i >= 0:
                pkt = frags[i]
            plines = self.lines_of(pkt.payload_len)
            token = pkt.mem_token
            home = consumer_node
            warm = 0
            if token is not None:
                pkt.mem_token = None
                home, tid = token
                node = self.nodes[home]
                entry = node.entries.pop(tid, None)
                if entry is not None:
                    node.io_occupancy -= entry
                    warm = min(plines, entry)
                    node.llc_hits += warm
            cold = plines - warm
            if cold < 0:
                cold = 0
            if home == consumer_node:
                warm_local += warm
                cold_local += cold
            else:
                warm_remote += warm
                cold_remote += cold
        self.remote_line_fetches += warm_remote + cold_remote
        self.dram_line_fetches += cold_local + cold_remote
        return (warm_local, warm_remote, cold_local, cold_remote)

    # ------------------------------------------------------------------
    # copy-side pricing (replaces CacheModel.sequential_copy_cycles)
    # ------------------------------------------------------------------
    def copy_cycles(self, nbytes: int, meminfo: MemInfo, alu_cycles_per_byte: float) -> float:
        """Cycles to copy ``nbytes`` whose source lines were classified in
        ``meminfo``, to a destination governed by the app working set.

        ``meminfo`` may cover fewer lines than ``nbytes`` (TCP reassembly
        delivers reorder-queued segments whose tokens were consumed, or
        never classified, earlier) — the shortfall is priced as cold local
        DRAM, which is where reorder-buffered payload actually sits.
        """
        c = self.config
        need = self.lines_of(nbytes)
        warm_local, warm_remote, cold_local, cold_remote = meminfo
        remaining = need
        take_wl = min(warm_local, remaining)
        remaining -= take_wl
        take_wr = min(warm_remote, remaining)
        remaining -= take_wr
        take_cl = min(cold_local, remaining)
        remaining -= take_cl
        take_cr = min(cold_remote, remaining)
        remaining -= take_cr
        src = (
            take_wl * c.llc_hit_cycles
            + take_wr * c.remote_llc_hit_cycles
            + (take_cl + remaining) * c.dram_cycles_per_line
            + take_cr * c.remote_dram_cycles_per_line
        )
        dst = need * self.dst_cold_fraction * c.rfo_cycles_per_line
        return src + dst + nbytes * alu_cycles_per_byte

    def remote_skb_touch_cycles(self) -> float:
        """Extra cost of touching sk_buff metadata allocated on another
        node's pool (the NUMA penalty on the descriptor, not the data)."""
        c = self.config
        return c.skb_touch_lines * (
            c.remote_dram_cycles_per_line - c.dram_cycles_per_line
        )

    # ------------------------------------------------------------------
    # machine-wide counter rollups (metrics registry reads these)
    # ------------------------------------------------------------------
    @property
    def llc_hits(self) -> int:
        return sum(node.llc_hits for node in self.nodes)

    @property
    def ddio_placements(self) -> int:
        return sum(node.ddio_placements for node in self.nodes)

    @property
    def io_evictions(self) -> int:
        return sum(node.io_evictions for node in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        occ = [node.io_occupancy for node in self.nodes]
        return f"MemoryHierarchy(nodes={len(self.nodes)}, io_occupancy={occ})"
