"""Tests for the :mod:`repro.parallel` sweep runner.

The invariant under test: parallelism never changes science output.  A
sweep run with ``jobs=2`` must return exactly what the serial run returns
(the pinned rows), in the same order.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import obs
from repro.analysis.sanitizer import SimSanitizer
from repro.experiments import figure11_aggregation_limit
from repro.parallel import resolve_jobs, run_points
from repro.sim.engine import Simulator, install_checker, installed_checkers, uninstall_checker

from tests.conftest import assert_rows_match_pin


def _square(x: int) -> int:
    return x * x


def _observer_names(_point=None) -> list:
    return [type(o).__name__ for o in Simulator().observers]


@pytest.fixture(params=["fork", "spawn"])
def start_method(request):
    """Run the test's pools under each start method, then restore it."""
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {request.param} start method on this platform")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    try:
        yield request.param
    finally:
        multiprocessing.set_start_method(previous, force=True)


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(0) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(-1) >= 1


def test_serial_matches_parallel_order():
    points = list(range(10))
    assert run_points(_square, points) == run_points(_square, points, jobs=2)
    assert run_points(_square, points, jobs=2) == [x * x for x in points]


def test_empty_and_single_point():
    assert run_points(_square, []) == []
    assert run_points(_square, [3], jobs=8) == [9]


def test_worker_exception_propagates_serial_and_parallel():
    with pytest.raises(ValueError):
        run_points(_boom, [1, 2])
    with pytest.raises(ValueError):
        run_points(_boom, [1, 2], jobs=2)


def test_workers_ignore_the_checker_environment(start_method, monkeypatch):
    """Workers are checked as the parent is, whatever the environment says."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_RACECHECK", "1")
    parent = _observer_names()
    assert run_points(_observer_names, [0, 1], jobs=2) == [parent, parent]


def test_workers_get_the_parents_checkers(start_method, monkeypatch):
    """A checker installed in the parent reaches every worker, also under
    spawn, where workers inherit nothing from the parent's memory."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    fresh = SimSanitizer not in installed_checkers()
    install_checker(SimSanitizer)
    try:
        parent = _observer_names()
        assert "SimSanitizer" in parent
        assert run_points(_observer_names, [0, 1], jobs=2) == [parent, parent]
    finally:
        if fresh:
            uninstall_checker(SimSanitizer)


@pytest.mark.parametrize("observed", [False, True], ids=["obs_off", "obs_on"])
def test_figure11_quick_rows_identical_serial_vs_parallel(observed):
    """End-to-end: a real sweep experiment run in worker processes
    (per-point isolated simulations) yields its pinned serial rows.  With
    observation on, workers are not observed (documented) and the rows
    must still match bit-for-bit."""
    if observed:
        obs.configure(trace=True, metrics=True)
    try:
        parallel = figure11_aggregation_limit.run(quick=True, jobs=2)
    finally:
        obs.reset()
    what = "worker processes with observation on" if observed else "worker processes"
    assert_rows_match_pin("figure11", parallel, what)
