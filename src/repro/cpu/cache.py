"""Cache and hardware-prefetch model.

This module is the mechanistic heart of the paper's §2.1 observation.  A
newly DMA-ed packet is cold in the cache; every operation that touches its
bytes pays cache misses.  The cost of those misses depends on the *access
pattern*:

* **Sequential** access (data copy, software checksum) walks the payload one
  cache line after another.  A hardware prefetcher recognizes the stride and
  hides most of the miss latency — the more aggressive the prefetcher, the
  cheaper the per-byte operations.
* **Random** access (touching one header field during demultiplexing or
  ``eth_type_trans``) gains nothing from prefetching: it is a single
  compulsory miss at full memory latency.

The three :class:`PrefetchMode` settings correspond to the paper's Figure 1
CPU configurations: ``NONE`` (no prefetching), ``PARTIAL`` (adjacent
cache-line prefetch), ``FULL`` (adjacent-line + stride prefetch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class PrefetchMode(Enum):
    """Hardware prefetcher configuration (paper Figure 1's X axis)."""

    NONE = "none"
    PARTIAL = "partial"
    FULL = "full"


@dataclass
class CacheModel:
    """Cycle costs of touching memory under a given prefetch configuration.

    Attributes
    ----------
    line_bytes:
        Cache-line size.
    memory_miss_cycles:
        Full main-memory miss latency in cycles (a ~3 GHz Xeon with ~90 ns
        memory latency sees roughly 300-400 cycles).
    sequential_miss_cycles:
        Effective cost per *line* of a sequential walk, per prefetch mode.
        ``NONE`` pays nearly the full miss per line; ``PARTIAL``
        (adjacent-line prefetch) roughly halves it; ``FULL`` (stride
        prefetcher) hides almost all of it.
    copy_cycles_per_byte:
        Pure ALU/store cost of copying one byte (pipelined ``rep movs``-like).
    checksum_cycles_per_byte:
        Pure ALU cost of checksumming one byte in software.
    """

    line_bytes: int = 64
    memory_miss_cycles: float = 380.0
    sequential_miss_cycles: Dict[PrefetchMode, float] = field(
        default_factory=lambda: {
            PrefetchMode.NONE: 380.0,
            PrefetchMode.PARTIAL: 190.0,
            PrefetchMode.FULL: 30.0,
        }
    )
    copy_cycles_per_byte: float = 0.75
    checksum_cycles_per_byte: float = 0.5

    def lines(self, nbytes: int) -> int:
        """Number of cache lines spanned by ``nbytes`` of cold data."""
        if nbytes <= 0:
            return 0
        return (nbytes + self.line_bytes - 1) // self.line_bytes

    def sequential_copy_cycles(self, nbytes: int, mode: PrefetchMode) -> float:
        """Cycles to copy ``nbytes`` of cold data under prefetch ``mode``.

        miss-per-line × lines + per-byte move cost.  This is the paper's
        per-byte operation; its prefetch sensitivity produces Figure 1.
        """
        return self.lines(nbytes) * self.sequential_miss_cycles[mode] + nbytes * self.copy_cycles_per_byte

    def sequential_checksum_cycles(self, nbytes: int, mode: PrefetchMode) -> float:
        """Cycles to software-checksum ``nbytes`` of cold data.

        Only paid when the NIC lacks receive checksum offload; the paper's
        testbed (e1000) offloads it, so the default configurations never
        charge this.
        """
        return (
            self.lines(nbytes) * self.sequential_miss_cycles[mode]
            + nbytes * self.checksum_cycles_per_byte
        )
