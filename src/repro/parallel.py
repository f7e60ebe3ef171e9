"""Parallel sweep runner for embarrassingly-parallel experiment points.

Several experiments sweep an independent variable (aggregation limit,
connection count) and run one *fully isolated* simulation per point: each
point builds its own :class:`~repro.sim.engine.Simulator`, machine, and
seeded traffic sources, so points share no mutable state.  That makes the
sweep embarrassingly parallel — and Python-level simulation is CPU-bound,
so processes (not threads) are the only way to overlap points.

:func:`run_points` maps a picklable worker over the sweep points, either
serially in-process (``jobs`` in ``(None, 0, 1)``) or on a
``ProcessPoolExecutor``.  Results always come back in point order, so an
experiment's rows are byte-identical regardless of ``jobs`` — parallelism
must never change science output.  Determinism holds because every source
RNG is seeded per point inside the worker (never from global state), and
worker processes are forked/spawned fresh so no simulation state leaks
between points.  The run-time checkers installed in the parent (see
:func:`repro.sim.engine.install_checker`) go to every worker as one
initializer argument, so workers are checked exactly as the parent is,
under any start method.

Workers must be module-level functions taking one picklable argument tuple
and returning a picklable value; keep return values small (plain floats /
ints) so IPC cost stays negligible next to the simulation itself.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.sim.engine import install_checker, installed_checkers

_P = TypeVar("_P")
_R = TypeVar("_R")


def _describe_callable(worker: Callable) -> str:
    module = getattr(worker, "__module__", None) or "?"
    qualname = getattr(worker, "__qualname__", None) or repr(worker)
    return f"{module}.{qualname}"


def ensure_picklable_worker(worker: Callable) -> None:
    """Fail fast, by name, when a worker cannot ship to a process pool.

    Without this, an unpicklable worker (lambda, closure, bound method of an
    ad-hoc object) surfaces as an opaque ``PicklingError`` from deep inside
    the pool machinery — possibly minutes into a sweep.  ``simlint``'s
    ``unpicklable-worker`` rule catches the static cases; this catches the
    rest at the moment of the call.
    """
    try:
        pickle.dumps(worker)
    except Exception as exc:
        name = _describe_callable(worker)
        raise TypeError(
            f"run_points worker {name} is not picklable and cannot be sent "
            f"to worker processes: {exc}. Use a module-level function "
            "taking one argument tuple (no lambdas, closures, or bound "
            "methods of unpicklable objects)."
        ) from exc


def _pool_worker_init(checkers: Dict[type, Dict[str, Any]]) -> None:
    """Executed in each pool process: install the parent's checkers."""
    for cls, kwargs in checkers.items():
        install_checker(cls, **kwargs)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request to an effective worker count.

    ``None``, ``0`` and ``1`` mean serial.  ``-1`` means "one worker per
    CPU".  Anything else is used as given (clamped to at least 1).
    """
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return os.cpu_count() or 1
    return jobs


def run_points(
    worker: Callable[[_P], _R],
    points: Sequence[_P],
    jobs: Optional[int] = None,
) -> List[_R]:
    """Run ``worker(point)`` for every point, preserving input order.

    Serial when ``jobs`` resolves to 1 (the default), otherwise fans out
    over a process pool with at most ``min(jobs, len(points))`` workers.
    Exceptions raised by a worker propagate to the caller in both modes.
    """
    pts = list(points)
    n_jobs = resolve_jobs(jobs)
    if n_jobs <= 1 or len(pts) <= 1:
        return [worker(p) for p in pts]
    ensure_picklable_worker(worker)
    with ProcessPoolExecutor(
        max_workers=min(n_jobs, len(pts)),
        initializer=_pool_worker_init,
        initargs=(installed_checkers(),),
    ) as pool:
        # Executor.map preserves submission order, so rows built from the
        # returned list are identical to a serial run's.
        return list(pool.map(worker, pts))
