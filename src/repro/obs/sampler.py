"""Sim-time periodic sampling: throughput / cwnd / queue-depth series.

The paper's figures are end-of-run aggregates; this module adds the *time
dimension* — how cwnd ramps, how ring occupancy breathes with interrupt
moderation, when throughput plateaus — by scheduling a periodic sampling
callback on the run's own :class:`~repro.sim.engine.Simulator`.

Everything here runs on **simulated time only** (the simlint wall-clock
contract): samples fire as ordinary simulator events at ``interval`` spacing
up to a fixed ``horizon``, so the event heap still drains and a seeded run
produces bit-identical series every time.  Sampling adds events to the run
(``events_fired`` changes) but never touches protocol state, so measured
rows are unaffected.
"""

from __future__ import annotations

from typing import Callable, List, Optional

#: Default sampling interval (seconds of simulated time).  Quick windows are
#: 100 ms total, so 5 ms gives ~20 points per quick run.
DEFAULT_SAMPLE_INTERVAL = 0.005


class Series:
    """One named time series: parallel ``times``/``values`` arrays."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def to_json(self) -> dict:
        return {"t": list(self.times), "v": list(self.values)}


class _Probe:
    __slots__ = ("series", "fn", "rate_scale", "last")

    def __init__(self, series: Series, fn: Callable[[], float], rate_scale: Optional[float]):
        self.series = series
        self.fn = fn
        #: ``None`` for plain gauges; a multiplier for cumulative-counter
        #: probes sampled as a per-second rate.
        self.rate_scale = rate_scale
        self.last = 0.0


class TimeSeriesSampler:
    """Periodic sampler driven by the run's simulator.

    Usage::

        sampler = TimeSeriesSampler(sim, interval=0.005)
        sampler.add_probe("ring.occupancy", lambda: len(ring))
        sampler.add_rate_probe("throughput_mbps", server_bytes, scale=8 / 1e6)
        sampler.start(horizon=warmup + duration)
        sim.run(until=warmup + duration)
        sampler.to_json()
    """

    def __init__(self, sim, interval: float = DEFAULT_SAMPLE_INTERVAL):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.interval = interval
        self.horizon: Optional[float] = None
        self.samples_taken = 0
        self._probes: List[_Probe] = []

    # ------------------------------------------------------------------
    # probe registration
    # ------------------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float]) -> Series:
        """Sample ``fn()`` as a point-in-time gauge."""
        series = Series(name)
        self._probes.append(_Probe(series, fn, None))
        return series

    def add_rate_probe(self, name: str, fn: Callable[[], float], scale: float = 1.0) -> Series:
        """Sample a cumulative counter ``fn()`` as a per-second rate.

        Each sample records ``(fn() - previous) / interval * scale``; e.g.
        ``scale=8/1e6`` turns a byte counter into Mb/s.
        """
        series = Series(name)
        probe = _Probe(series, fn, scale)
        probe.last = float(fn())
        self._probes.append(probe)
        return series

    @property
    def series(self) -> List[Series]:
        return [p.series for p in self._probes]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def start(self, horizon: float) -> None:
        """Schedule sampling every ``interval`` up to (and including) ``horizon``.

        The sampler stops rescheduling past ``horizon`` so the event heap can
        drain; it never keeps a run alive on its own.
        """
        self.horizon = horizon
        first = self.sim.now + self.interval
        if first <= horizon:
            self.sim.call_at(first, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        interval = self.interval
        self.samples_taken += 1
        for probe in self._probes:
            value = probe.fn()
            if probe.rate_scale is not None:
                current = float(value)
                value = (current - probe.last) / interval * probe.rate_scale
                probe.last = current
            probe.series.times.append(now)
            probe.series.values.append(float(value))
        next_t = now + interval
        if self.horizon is not None and next_t <= self.horizon:
            self.sim.call_at(next_t, self._tick)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "interval_s": self.interval,
            "samples": self.samples_taken,
            "series": {p.series.name: p.series.to_json() for p in self._probes},
        }

    def render_dashboard(
        self, width: int = 60, height: int = 8, latency: Optional[dict] = None
    ) -> str:
        """Text dashboard: one compact ASCII chart per non-empty series.

        ``latency`` optionally appends per-stage sojourn quantiles —
        pass :meth:`repro.obs.trace.Tracer.latency_quantiles` output
        (``{stage: {samples, p50, p90, p99}}``, nanoseconds).
        """
        from repro.analysis.reporting import ascii_series

        blocks = [
            f"time-series dashboard: {self.samples_taken} samples "
            f"@ {self.interval * 1e3:g} ms"
        ]
        for probe in self._probes:
            series = probe.series
            if not series.times:
                continue
            points = list(zip(series.times, series.values))
            blocks.append(
                ascii_series(
                    points,
                    width=width,
                    height=height,
                    title=series.name,
                    x_label="sim time (s)",
                    y_label=series.name,
                )
            )
        if latency:
            name_w = max(len(name) for name in latency)
            lines = ["stage sojourn latency (ns):"]
            lines.append(
                f"  {'stage'.ljust(name_w)} {'samples':>9} {'p50':>12} "
                f"{'p90':>12} {'p99':>12}"
            )
            for name, row in latency.items():
                lines.append(
                    f"  {name.ljust(name_w)} {row['samples']:>9} "
                    f"{row['p50']:>12.0f} {row['p90']:>12.0f} {row['p99']:>12.0f}"
                )
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)


def check_dashboard_text(text: str) -> List[str]:
    """Validate a ``dashboard.txt`` export: it opens with a ``== label ==``
    line, and each such line is followed by its run's dashboard header."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("== "):
        return ["does not open with a '== label ==' line"]
    problems = []
    for i, line in enumerate(lines):
        if line.startswith("== ") and line.endswith(" =="):
            header = lines[i + 1] if i + 1 < len(lines) else ""
            if not header.startswith("time-series dashboard: "):
                problems.append(f"line {i + 2}: {line} has no dashboard header")
    return problems


# ----------------------------------------------------------------------
# standard probe sets for the streaming rigs
# ----------------------------------------------------------------------
def bind_standard_probes(sampler: TimeSeriesSampler, machine, connections=()) -> None:
    """Attach the default telemetry set for a receive rig.

    Covers the series the figures reason about: receive throughput, the
    cwnd of each of ``connections`` (the clients' side), per-queue ring
    occupancy, and aggregation queue depth.  Works on every machine
    through the same shared lists as :func:`repro.obs.metrics.bind_machine`.
    """
    kernel = getattr(machine, "kernel", None)
    if kernel is not None:
        sockets = kernel.sockets
        sampler.add_rate_probe(
            "throughput_mbps",
            lambda s=sockets: sum(sock.bytes_received for sock in s.values()),
            scale=8 / 1e6,
        )

    for conn in connections:
        sampler.add_probe(f"cwnd.{conn.name}", lambda c=conn: c.reno.cwnd)

    for nic in machine.nics:
        for queue in nic.queues:
            sampler.add_probe(
                f"ring.{nic.name}.q{queue.index}.occupancy",
                lambda r=queue.ring: len(r),
            )

    for aggr in machine.aggregators:
        sampler.add_probe(
            f"aggr.{aggr.name}.queue_depth", lambda a=aggr: len(a.queue)
        )

    for repair in machine.repairs:
        sampler.add_probe(
            f"repair.{repair.name}.occupancy", lambda r=repair: r.occupancy
        )
        sampler.add_probe(
            f"repair.{repair.name}.mode", lambda r=repair: r.governor.mode
        )

    mem = getattr(machine, "mem", None)
    if mem is not None:
        for node in mem.nodes:
            sampler.add_probe(
                f"mem.node{node.index}.io_occupancy_lines",
                lambda n=node: n.io_occupancy,
            )
