"""Experiment registry and runner."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional

from repro.experiments import (
    ablation_limit_one,
    extension_bidirectional,
    extension_hw_lro,
    extension_itr,
    extension_jumbo,
    extension_load_sensitivity,
    extension_resilience,
    extension_rss_scaling,
    extension_tso,
    extension_zero_copy,
    figure01_prefetching,
    figure02_systems,
    figure03_up_breakdown,
    figure04_smp_breakdown,
    figure06_xen_breakdown,
    figure07_overall,
    figure08_up_opt_breakdown,
    figure09_smp_opt_breakdown,
    figure10_xen_opt_breakdown,
    figure11_aggregation_limit,
    figure12_scalability,
    table1_latency,
)
from repro.experiments.base import ExperimentResult
from repro.parallel import resolve_jobs

REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {
    "figure1": figure01_prefetching.run,
    "figure2": figure02_systems.run,
    "figure3": figure03_up_breakdown.run,
    "figure4": figure04_smp_breakdown.run,
    "figure6": figure06_xen_breakdown.run,
    "figure7": figure07_overall.run,
    "figure8": figure08_up_opt_breakdown.run,
    "figure9": figure09_smp_opt_breakdown.run,
    "figure10": figure10_xen_opt_breakdown.run,
    "figure11": figure11_aggregation_limit.run,
    "figure12": figure12_scalability.run,
    "table1": table1_latency.run,
    "ablation_limit1": ablation_limit_one.run,
    "extension_hw_lro": extension_hw_lro.run,
    "extension_jumbo": extension_jumbo.run,
    "extension_itr": extension_itr.run,
    "extension_bidirectional": extension_bidirectional.run,
    "extension_load_sensitivity": extension_load_sensitivity.run,
    "extension_resilience": extension_resilience.run,
    "extension_rss_scaling": extension_rss_scaling.run,
    "extension_tso": extension_tso.run,
    "extension_zero_copy": extension_zero_copy.run,
}


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    jobs: Optional[int] = None,
    queues: Optional[List[int]] = None,
    impairments=None,
    numa_nodes: Optional[int] = None,
    zero_copy: Optional[bool] = None,
    observed: bool = False,
) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"figure7"``).

    ``jobs`` requests process-level parallelism for sweep experiments that
    support it (see :mod:`repro.parallel`); experiments without a ``jobs``
    parameter simply run serially.  Results are identical either way.
    ``queues`` overrides the swept receive-queue counts for experiments
    that take one (``extension_rss_scaling``); asking any other
    experiment is an error.
    ``impairments`` (an :class:`~repro.faults.plan.ImpairmentConfig`)
    applies wire impairments / a fault plan to experiments that accept
    them; asking an experiment that doesn't is an error, not a silent
    clean-wire run.  ``numa_nodes`` / ``zero_copy`` configure the memory
    hierarchy for experiments that model it (``extension_zero_copy``);
    asking any other experiment is likewise a loud error.  ``observed``
    says the caller collects observations in this process (the CLI's
    ``--obs-dir``): every run of every experiment is built inside its
    observation, but a sweep must not send points to ``jobs`` worker
    processes, which the collectors never see; that is a ``ValueError``
    before anything runs.
    """
    try:
        fn = REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None
    params = inspect.signature(fn).parameters
    if observed and "jobs" in params and resolve_jobs(jobs) > 1:
        raise ValueError(
            f"--obs-dir cannot be combined with --jobs {jobs}: {experiment_id} "
            "would run sweep points in worker processes, which the "
            "in-process collectors never see; run without --jobs"
        )
    kwargs = {}
    if jobs is not None and "jobs" in params:
        kwargs["jobs"] = jobs
    if queues is not None:
        if "queues" not in params:
            raise ValueError(
                f"experiment {experiment_id!r} does not sweep receive queues "
                "(--queues)"
            )
        kwargs["queues"] = queues
    if impairments is not None:
        if "impairments" not in params:
            raise ValueError(
                f"experiment {experiment_id!r} does not take wire impairments "
                "(--drop/--reorder/--dup/--fault-plan)"
            )
        kwargs["impairments"] = impairments
    if numa_nodes is not None:
        if "numa_nodes" not in params:
            raise ValueError(
                f"experiment {experiment_id!r} does not model the memory "
                "hierarchy (--numa-nodes)"
            )
        kwargs["numa_nodes"] = numa_nodes
    if zero_copy is not None:
        if "zero_copy" not in params:
            raise ValueError(
                f"experiment {experiment_id!r} does not take a receive mode "
                "(--zero-copy)"
            )
        kwargs["zero_copy"] = zero_copy
    return fn(quick=quick, **kwargs)


def run_all(quick: bool = True, jobs: Optional[int] = None) -> List[ExperimentResult]:
    """Run every experiment; quick fidelity by default."""
    return [run_experiment(eid, quick=quick, jobs=jobs) for eid in REGISTRY]
