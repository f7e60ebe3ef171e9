"""Declarative fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` windows plus a root
seed.  Plans are plain data: JSON round-trippable (the ``--fault-plan
FILE.json`` CLI flag) and picklable (parallel sweep workers replay them
bit-identically).

Every randomized fault derives its RNG stream from the plan seed and the
spec's position, never from wall clock or global state, so a plan replays
identically run after run — the property the chaos-quick CI job asserts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

#: Every fault kind the injector knows how to apply.
#:
#: ``loss_burst``     bursty correlated loss (Gilbert–Elliott) on inbound links
#: ``corrupt``        per-frame corruption; receiver checksum must reject
#: ``reorder_storm``  elevated reorder probability on inbound links
#: ``dup_storm``      elevated duplication probability on inbound links
#: ``ring_storm``     rx descriptor rings shrink -> overrun/tail-drop storm
#: ``pool_exhaust``   sk_buff pool capacity window -> alloc failures
#: ``link_flap``      administrative link down for the window
#: ``nic_hang``       NIC stops raising interrupts; driver watchdog recovers
FAULT_KINDS = (
    "loss_burst",
    "corrupt",
    "reorder_storm",
    "dup_storm",
    "ring_storm",
    "pool_exhaust",
    "link_flap",
    "nic_hang",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault window: ``kind`` active over [start, start+duration).

    ``intensity`` is the kind's primary knob in [0, 1]:

    * ``loss_burst``: stationary loss rate target (drives the bad-state
      dwell); ``params`` may override ``p_good_bad``/``p_bad_good``/
      ``loss_bad``/``loss_good`` directly.
    * ``corrupt`` / ``reorder_storm`` / ``dup_storm``: the per-frame
      probability applied during the window.
    * ``ring_storm``: fraction of ring capacity *removed* (0.9 leaves 10%).
    * ``pool_exhaust``: ignored unless ``params["capacity"]`` is absent, in
      which case capacity = max(4, int((1-intensity) * 256)).
    * ``link_flap`` / ``nic_hang``: ignored (binary faults).

    ``target`` selects which NIC/link index the fault hits ("*" = all).
    """

    kind: str
    start: float
    duration: float
    intensity: float = 1.0
    target: str = "*"
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.start < 0 or self.duration <= 0:
            raise ValueError(
                f"fault window must have start >= 0 and duration > 0 "
                f"(got start={self.start}, duration={self.duration})"
            )
        if not (0.0 <= self.intensity <= 1.0):
            raise ValueError(f"intensity must be in [0, 1] (got {self.intensity})")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def hits(self, index: int) -> bool:
        """Does this fault apply to NIC/link ``index``?"""
        return self.target == "*" or self.target == str(index)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault windows."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 20080622  # the paper's USENIX ATC publication date
    name: str = "plan"

    def __post_init__(self) -> None:
        # JSON loads and callers may hand in lists; store a tuple so plans
        # are hashable and safely shared across sweep points.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def horizon(self) -> float:
        """Latest fault end time (0.0 for an empty plan)."""
        return max((spec.end for spec in self.specs), default=0.0)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.kind for spec in self.specs}))

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [asdict(spec) for spec in self.specs],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        specs = tuple(
            FaultSpec(
                kind=entry["kind"],
                start=float(entry["start"]),
                duration=float(entry["duration"]),
                intensity=float(entry.get("intensity", 1.0)),
                target=str(entry.get("target", "*")),
                params={k: float(v) for k, v in entry.get("params", {}).items()},
            )
            for entry in doc.get("faults", ())
        )
        return cls(
            specs=specs,
            seed=int(doc.get("seed", 20080622)),
            name=str(doc.get("name", "plan")),
        )

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class PlanFileError(ValueError):
    """A fault-plan file failed to load: the message names the file, the
    offending fault entry, and what is wrong — no traceback needed."""


def load_plan_file(path: str) -> FaultPlan:
    """:meth:`FaultPlan.load` with every failure rewritten for humans.

    Raises :class:`PlanFileError` (a :class:`ValueError`) on unreadable
    files, malformed JSON, wrong shapes, and per-spec validation failures,
    always naming the fault entry's index.  The CLI and ``python -m
    repro.faults validate`` both route through here.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise PlanFileError(
            f"cannot read fault plan {path!r}: {exc.strerror or exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise PlanFileError(f"fault plan {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PlanFileError(
            f"fault plan {path!r}: top level must be a JSON object, "
            f"got {type(doc).__name__}"
        )
    faults = doc.get("faults", [])
    if not isinstance(faults, list):
        raise PlanFileError(
            f"fault plan {path!r}: 'faults' must be a list, "
            f"got {type(faults).__name__}"
        )
    specs: List[FaultSpec] = []
    for i, entry in enumerate(faults):
        if not isinstance(entry, dict):
            raise PlanFileError(
                f"fault plan {path!r}: fault #{i} must be a JSON object, "
                f"got {type(entry).__name__}"
            )
        missing = [k for k in ("kind", "start", "duration") if k not in entry]
        if missing:
            raise PlanFileError(
                f"fault plan {path!r}: fault #{i} is missing "
                f"{', '.join(missing)}"
            )
        try:
            specs.extend(FaultPlan.from_json({"faults": [entry]}).specs)
        except (TypeError, ValueError) as exc:
            raise PlanFileError(
                f"fault plan {path!r}: fault #{i}: {exc}"
            ) from exc
    try:
        return FaultPlan(
            specs=tuple(specs),
            seed=int(doc.get("seed", 20080622)),
            name=str(doc.get("name", "plan")),
        )
    except (TypeError, ValueError) as exc:
        raise PlanFileError(f"fault plan {path!r}: {exc}") from exc


#: Kinds whose window is a no-op at intensity 0 unless params override it.
_INTENSITY_DRIVEN = ("loss_burst", "corrupt", "reorder_storm", "dup_storm", "ring_storm")


def validate_plan(plan: FaultPlan) -> List[str]:
    """Semantic lint over a structurally-valid plan.

    Spec-level validation (unknown kinds, negative windows, intensity
    range) already raised when the plan was built; this checks the
    properties only the whole plan can show.  Returns human-readable
    problem strings — empty means clean.
    """
    problems: List[str] = []
    if not plan.specs:
        problems.append("plan has no fault windows — nothing would be injected")
    if plan.seed < 0:
        problems.append(f"seed must be non-negative (got {plan.seed})")
    for i, spec in enumerate(plan.specs):
        if spec.target != "*" and not spec.target.isdigit():
            problems.append(
                f"fault #{i} ({spec.kind}): target must be '*' or a "
                f"non-negative NIC index (got {spec.target!r})"
            )
        if (
            spec.kind in _INTENSITY_DRIVEN
            and spec.intensity == 0.0
            and not spec.params
        ):
            problems.append(
                f"fault #{i} ({spec.kind}): intensity 0 with no params — "
                "the window would inject nothing"
            )
    # Two same-kind windows hitting an overlapping target set in
    # overlapping time: the injector saves pre-fault state at each window
    # start and restores it at each end, so the second restore would
    # resurrect mid-storm state.
    for i, a in enumerate(plan.specs):
        for j in range(i + 1, len(plan.specs)):
            b = plan.specs[j]
            if a.kind != b.kind:
                continue
            if a.target != b.target and "*" not in (a.target, b.target):
                continue
            if a.start < b.end and b.start < a.end:
                problems.append(
                    f"fault #{i} and fault #{j}: overlapping {a.kind!r} "
                    f"windows on target {a.target!r}/{b.target!r} "
                    f"([{a.start:g}, {a.end:g}) vs [{b.start:g}, {b.end:g})) "
                    "— save/restore order would be ambiguous"
                )
    return problems


@dataclass(frozen=True)
class ImpairmentConfig:
    """Everything the CLI/sweep layers plumb into a stream rig.

    Uniform per-frame probabilities applied to every inbound link from rig
    construction on (``--drop`` / ``--reorder`` / ``--dup``), plus an
    optional :class:`FaultPlan` of scheduled windows (``--fault-plan``).
    Frozen + plain data, so sweep points carrying one pickle cleanly and
    parallel rows stay bit-identical to serial ones.
    """

    drop: float = 0.0
    reorder: float = 0.0
    dup: float = 0.0
    seed: int = 971
    plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        for label, p in (("drop", self.drop), ("reorder", self.reorder), ("dup", self.dup)):
            if not (0.0 <= p < 1.0):
                raise ValueError(f"{label} probability must be in [0, 1) (got {p})")


def storm_plan(
    kind: str,
    intensity: float,
    start: float = 0.02,
    duration: float = 0.05,
    seed: int = 20080622,
    params: Optional[Dict[str, float]] = None,
) -> FaultPlan:
    """A one-window plan — the resilience sweep's unit of work."""
    spec = FaultSpec(
        kind=kind, start=start, duration=duration,
        intensity=intensity, params=dict(params or {}),
    )
    return FaultPlan(specs=(spec,), seed=seed, name=f"{kind}@{intensity:g}")


def sample_plan() -> FaultPlan:
    """A kitchen-sink plan exercising every fault kind (docs/CLI demo)."""
    return FaultPlan(
        name="sample",
        specs=(
            FaultSpec("loss_burst", start=0.020, duration=0.020, intensity=0.3),
            FaultSpec("corrupt", start=0.050, duration=0.015, intensity=0.2),
            FaultSpec("reorder_storm", start=0.075, duration=0.015, intensity=0.3),
            FaultSpec("ring_storm", start=0.100, duration=0.010, intensity=0.9),
            FaultSpec("pool_exhaust", start=0.120, duration=0.010, intensity=0.9),
            FaultSpec("link_flap", start=0.140, duration=0.005),
            FaultSpec("nic_hang", start=0.155, duration=0.010),
        ),
    )
