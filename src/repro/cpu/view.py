"""Category-remapping views onto a shared CPU.

In the Xen configuration, the driver domain, the hypervisor, and the guest
all execute on the same physical CPU, but their cycles must land in
different profiler categories (Figure 6's axis) and guest-kernel work is
more expensive than native (shadow paging, TLB flushes on the 2006-era Xen).

A :class:`CpuView` wraps a :class:`~repro.cpu.cpu.Cpu` and presents the same
interface, translating categories and applying per-category cost scaling on
``consume``.  Components built for native Linux (the kernel, the driver, the
aggregation engine) run unmodified against a view.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cpu.costmodel import CostModel
from repro.cpu.cpu import Cpu


class CpuView:
    """A relabelling/scaling facade over a shared CPU."""

    def __init__(
        self,
        cpu: Cpu,
        category_map: Optional[Dict[str, str]] = None,
        scale_map: Optional[Dict[str, float]] = None,
        costs: Optional[CostModel] = None,
        name: str = "view",
    ):
        self._cpu = cpu
        self.category_map = category_map or {}
        self.scale_map = scale_map or {}
        self.costs = costs if costs is not None else cpu.costs
        self.name = name
        self._cpu_consume = cpu.consume
        #: category -> (scale, category on the shared CPU), resolved on the
        #: first charge; the maps are fixed once the view is built.
        self._charge_keys: Dict[str, Tuple[float, str]] = {}

    # ---- the Cpu interface used by kernel/driver/aggregation code ----
    def consume(self, cycles: float, category: str) -> None:
        try:
            scale, mapped = self._charge_keys[category]
        except KeyError:
            scale = self.scale_map.get(category, 1.0)
            mapped = self.category_map.get(category, category)
            self._charge_keys[category] = (scale, mapped)
        # A scale of 1.0 leaves the value unchanged.
        self._cpu_consume(cycles * scale, mapped)

    def submit(self, fn, *args) -> None:
        self._cpu.submit(fn, *args)

    def defer(self, fn, *args):
        return self._cpu.defer(fn, *args)

    def idle(self) -> bool:
        return self._cpu.idle()

    @property
    def profiler(self):
        return self._cpu.profiler

    @property
    def sim(self):
        return self._cpu.sim

    @property
    def freq_hz(self) -> float:
        return self._cpu.freq_hz

    @property
    def busy_cycles(self) -> float:
        return self._cpu.busy_cycles

    @property
    def busy_until(self) -> float:
        return self._cpu.busy_until

    @property
    def now_done(self) -> float:
        return self._cpu.now_done

    @property
    def locks(self):
        return self._cpu.locks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CpuView({self.name!r} -> {self._cpu.name!r})"
