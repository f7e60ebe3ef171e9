"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.analysis.racecheck import RaceChecker
from repro.analysis.sanitizer import SimSanitizer
from repro.core.config import OptimizationConfig
from repro.host.configs import linux_up_config
from repro.sim.engine import Simulator, install_checker, uninstall_checker

#: ``REPRO_SANITIZE=1 pytest`` runs the whole suite with the runtime
#: invariant checker installed (see repro.analysis.sanitizer), and
#: ``REPRO_RACECHECK=1 pytest`` with the cross-CPU ownership race detector
#: (see repro.analysis.racecheck); CI runs the tier-1 suite once sanitized
#: and the checker tests once race-checked.
_SUITE_CHECKERS = [
    cls
    for variable, cls in (("REPRO_SANITIZE", SimSanitizer), ("REPRO_RACECHECK", RaceChecker))
    if os.environ.get(variable) == "1"
]


@pytest.fixture(autouse=bool(_SUITE_CHECKERS))
def _suite_checkers():
    for cls in _SUITE_CHECKERS:
        install_checker(cls)
    try:
        yield
    finally:
        for cls in _SUITE_CHECKERS:
            uninstall_checker(cls)


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
