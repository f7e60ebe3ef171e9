"""Tests for the :mod:`repro.parallel` sweep runner.

The invariant under test: parallelism never changes science output.  A
sweep run with ``jobs=2`` must return exactly what the serial run returns
(the pinned rows), in the same order.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments import figure11_aggregation_limit
from repro.parallel import resolve_jobs, run_points

from tests.conftest import assert_rows_match_pin


def _square(x: int) -> int:
    return x * x


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
