"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.core.config import OptimizationConfig
from repro.host.configs import linux_up_config
from repro.sim.engine import Simulator

#: ``REPRO_SANITIZE=1 pytest`` runs the whole suite with the runtime
#: invariant checker installed (see repro.analysis.sanitizer); CI runs the
#: tier-1 suite once in this mode.
_SANITIZE = os.environ.get("REPRO_SANITIZE") == "1"

#: ``REPRO_RACECHECK=1 pytest`` likewise runs the suite with the cross-CPU
#: ownership race detector installed (see repro.analysis.racecheck).
_RACECHECK = os.environ.get("REPRO_RACECHECK") == "1"


@pytest.fixture(autouse=_SANITIZE)
def _sanitized_run():
    if not _SANITIZE:  # autouse is False then, but keep the guard explicit
        yield
        return
    from repro.analysis.sanitizer import install, uninstall

    handle = install()
    try:
        yield
    finally:
        uninstall(handle)


@pytest.fixture(autouse=_RACECHECK)
def _racechecked_run():
    if not _RACECHECK:
        yield
        return
    from repro.analysis.racecheck import install, uninstall

    handle = install()
    try:
        yield
    finally:
        uninstall(handle)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def assert_rows_match_pin(experiment_id: str, result, what: str) -> None:
    """``result``'s rows must hash to ``experiment_id``'s digest in
    tests/golden/rows.json; ``what`` names the instrumentation or run mode
    under test, for the failure message."""
    from repro.analysis import golden

    assert golden.rows_digest(result.rows) == golden.pins()[experiment_id], (
        f"{experiment_id} rows differ from their pin in tests/golden/rows.json: "
        f"either {what} moved the rows, or the rows moved without a re-pin "
        "(`python -m repro.analysis.golden` names every moved experiment, "
        "`--update` re-pins)"
    )


def fast_config(**overrides):
    """A Linux-UP config shrunk for fast integration tests (2 NICs)."""
    cfg = linux_up_config()
    return dataclasses.replace(cfg, n_nics=overrides.pop("n_nics", 2), **overrides)


@pytest.fixture
def baseline_opt() -> OptimizationConfig:
    return OptimizationConfig.baseline()


@pytest.fixture
def optimized_opt() -> OptimizationConfig:
    return OptimizationConfig.optimized()
