"""SMP locking-cost model.

On SMP, the Linux TCP stack brackets its per-packet routines with
lock-prefixed atomic read-modify-write instructions, which the paper notes
are slow on x86 (§2.3).  The measured effect: rx routines +62%, tx routines
+40%, buffer management ≈ unchanged (mostly lock-free in Linux), per-byte
copies unchanged (lock-free).

We model this as a per-category multiplicative inflation applied by the CPU
when it runs in SMP mode.  The aggregation path (``aggr``) is explicitly
CPU-local in the paper's design (§3.5: per-CPU lock-free aggregation queue),
so its factor is 1.0 — which is what makes the optimization's SMP win (5.5×)
larger than its UP win (4.3×).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cpu.categories import Category


def _default_factors() -> Dict[str, float]:
    return {
        Category.RX: 1.62,       # paper §2.3: "TCP receive routines incur 62% more"
        Category.TX: 1.40,       # paper §2.3: "TCP transmit routines incur 40% more"
        Category.NON_PROTO: 1.25,
        Category.DRIVER: 1.08,
        Category.BUFFER: 1.00,   # "implemented in a mostly lock-free manner"
        Category.PER_BYTE: 1.00,  # "can be implemented in a lock-free manner"
        Category.MISC: 1.12,
        Category.AGGR: 1.00,     # per-CPU, lock-free (§3.5)
    }


@dataclass
class LockModel:
    """Per-category SMP cycle inflation.

    ``enabled`` is False for uniprocessor configurations, making every
    factor 1.0.
    """

    enabled: bool = False
    factors: Dict[str, float] = field(default_factory=_default_factors)

    def factor(self, category: str) -> float:
        if not self.enabled:
            return 1.0
        return self.factors.get(category, 1.0)
