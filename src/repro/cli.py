"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run figure7 [--quick] [--sanitize] [--csv out.csv] [--jobs N]
    python -m repro run figure7 --quick --obs-dir obs --profile-out obs/profile.json
    python -m repro run extension_rss_scaling [--queues 1 2 4 8] [--jobs N]
    python -m repro run figure7 --quick --drop 0.01 --reorder 0.02 --dup 0.01
    python -m repro run figure12 --quick --fault-plan plan.json --jobs -1
    python -m repro run extension_resilience [--quick] [--jobs N] [--sanitize]
    python -m repro all [--quick] [--csv-dir results/] [--jobs N]
    python -m repro report [--quick] [EXPERIMENTS.md]

``--sanitize`` (on ``run``/``all``/``report``) installs the runtime
invariant checker (:mod:`repro.analysis.sanitizer`) for the command, its
sweep worker processes included.  Expect a slowdown; any protocol or
conservation violation aborts with a precise error instead of a wrong
number.

``--racecheck`` (same subcommands) installs the cross-CPU ownership race
detector (:mod:`repro.analysis.racecheck`): any access to another CPU's
queue state that is not charged through the CrossCpuCostModel (or
explicitly handed off) aborts with both sim-time stacks.  Checked runs
produce bit-identical rows; composes with ``--sanitize``.  Both checkers
are off again however the command ends.

Wire-impairment flags (on ``run``; see :mod:`repro.faults`): ``--drop`` /
``--reorder`` / ``--dup`` apply independent per-frame probabilities to
every inbound link of every rig the experiment builds; ``--fault-plan
FILE.json`` arms a deterministic fault schedule on top.  Experiments that
do not take impairments reject the flags loudly rather than ignoring them.
Impaired rows stay bit-identical between serial and ``--jobs`` runs.

Observability (``run`` only; see :mod:`repro.obs`): ``--obs-dir DIR`` turns
on every collector for the command — the packet-lifecycle tracer, the
metrics registry, the exact cycle ledger, and the sampler every
:data:`~repro.obs.DEFAULT_SAMPLE_INTERVAL` of simulated time — and writes

* ``DIR/trace.json``: the merged Chrome trace-event JSON (open at
  ui.perfetto.dev);
* ``DIR/observations.json``: every run's observation — metrics, series,
  trace summary, and ledger — as one ``{"runs": [...]}`` bundle, which
  ``python -m repro.obs diff`` reads (exact differential profiling);
* ``DIR/run.flame``: the ledgers as collapsed-stack flamegraph text;
* ``DIR/dashboard.txt``: each run's sampled series as text charts.

Every run of every experiment is built inside its own observation
(:func:`~repro.workloads.stream.observed_run`), so ``observations.json``
holds one run per rig the experiment built.  The collectors live in this
process, so ``--obs-dir`` is refused with ``--jobs`` above one worker on
a sweep experiment: the command exits 2 before anything runs or is
written.  ``--profile-out PATH`` (on ``run``) writes the per-category
cycle breakdown from the rows, so it works with ``--jobs``.  Measured
rows are bit-identical with or without any of these flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List

from repro import obs
from repro.analysis.export import breakdown_to_json, result_to_csv, results_to_csv_files
from repro.analysis.validation import validate
from repro.experiments.runner import REGISTRY, run_all, run_experiment
from repro.sim.engine import install_checker, installed_checkers, uninstall_checker


@contextmanager
def _instrumented(args) -> Iterator[None]:
    """Switch this command's checkers (``--sanitize``, ``--racecheck``) and
    collectors (``--obs-dir``) on, and back off however the command ends."""
    wanted = []
    if getattr(args, "sanitize", False):
        from repro.analysis.sanitizer import SimSanitizer

        wanted.append(SimSanitizer)
    if getattr(args, "racecheck", False):
        from repro.analysis.racecheck import RaceChecker

        wanted.append(RaceChecker)
    fresh = [cls for cls in wanted if cls not in installed_checkers()]
    for cls in fresh:
        install_checker(cls)
    observed = bool(getattr(args, "obs_dir", None))
    if observed:
        obs.configure(
            trace=True, metrics=True, ledger=True,
            sample_interval=obs.DEFAULT_SAMPLE_INTERVAL,
        )
    try:
        yield
    finally:
        if observed:
            obs.reset()
        for cls in fresh:
            uninstall_checker(cls)


def _export_observations(obs_dir: str) -> None:
    """Write everything the finished runs collected into ``obs_dir``."""
    done = obs.drain_completed()
    os.makedirs(obs_dir, exist_ok=True)
    with open(os.path.join(obs_dir, "trace.json"), "w") as fh:
        json.dump(obs.completed_chrome_trace(done), fh)
    with open(os.path.join(obs_dir, "observations.json"), "w") as fh:
        json.dump({"runs": [o.to_json() for o in done]}, fh, indent=1)
    with open(os.path.join(obs_dir, "run.flame"), "w") as fh:
        fh.write(obs.collapsed_text(
            [o.ledger.to_json() for o in done if o.ledger is not None]
        ))
    dashboards = [
        f"== {o.label} ==\n" + o.sampler.render_dashboard(
            latency=o.tracer.latency_quantiles() if o.tracer is not None else None
        )
        for o in done if o.sampler is not None and o.sampler.samples_taken
    ]
    with open(os.path.join(obs_dir, "dashboard.txt"), "w") as fh:
        fh.write("\n\n".join(dashboards) + "\n" if dashboards else "")
    spans = sum(len(o.tracer) for o in done if o.tracer is not None)
    print(
        f"wrote {obs_dir}: {len(done)} runs, {spans} trace events "
        "(trace.json opens at ui.perfetto.dev; observations.json feeds "
        "`python -m repro.obs diff`)"
    )


def _cmd_list(_args) -> int:
    width = max(len(eid) for eid in REGISTRY)
    for eid, fn in REGISTRY.items():
        doc = (fn.__module__.split(".")[-1]).replace("_", " ")
        print(f"{eid.ljust(width)}  {doc}")
    return 0


def _print_result(result, csv_path=None) -> None:
    print(result.to_text())
    checks = validate(result)
    if checks:
        print()
        for check in checks:
            print(str(check))
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            result_to_csv(result, fh)
        print(f"\nwrote {csv_path}")


def _impairments_from_args(args):
    """Build the ImpairmentConfig the wire flags describe (None if clean)."""
    if not (args.drop or args.reorder or args.dup or args.fault_plan):
        return None
    from repro.faults.plan import ImpairmentConfig, load_plan_file

    # load_plan_file raises PlanFileError (a ValueError) with a message
    # naming the file and offending entry; _cmd_run prints it and exits 2,
    # same as any other bad-argument path.
    plan = load_plan_file(args.fault_plan) if args.fault_plan else None
    return ImpairmentConfig(
        drop=args.drop, reorder=args.reorder, dup=args.dup,
        seed=args.impair_seed, plan=plan,
    )


def _cmd_run(args) -> int:
    try:
        result = run_experiment(
            args.experiment, quick=args.quick, jobs=args.jobs, queues=args.queues,
            impairments=_impairments_from_args(args),
            numa_nodes=args.numa_nodes,
            zero_copy=True if args.zero_copy else None,
            observed=bool(args.obs_dir),
        )
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    _print_result(result, args.csv)
    if args.obs_dir:
        _export_observations(args.obs_dir)
    if args.profile_out:
        with open(args.profile_out, "w") as fh:
            json.dump(breakdown_to_json(result), fh, indent=1)
        print(f"wrote {args.profile_out}")
    return 0


def _cmd_all(args) -> int:
    results = run_all(quick=args.quick, jobs=args.jobs)
    for result in results:
        _print_result(result)
        print()
    if args.csv_dir:
        paths = results_to_csv_files(results, args.csv_dir)
        print(f"wrote {len(paths)} CSV files to {args.csv_dir}")
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_markdown

    text = generate_markdown(quick=args.quick)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Optimizing TCP Receive Performance' (USENIX ATC 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(fn=_cmd_list)

    sanitize_help = (
        "install the runtime invariant checker (repro.analysis.sanitizer) "
        "for this run, including sweep workers"
    )
    racecheck_help = (
        "install the cross-CPU ownership race detector "
        "(repro.analysis.racecheck) for this run, including sweep workers; "
        "results are bit-identical to an unchecked run"
    )

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", choices=sorted(REGISTRY))
    p_run.add_argument("--quick", action="store_true", help="short measurement windows")
    p_run.add_argument("--sanitize", action="store_true", help=sanitize_help)
    p_run.add_argument("--racecheck", action="store_true", help=racecheck_help)
    p_run.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    p_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep experiments (-1 = all CPUs); "
        "rows are identical to a serial run",
    )
    p_run.add_argument(
        "--queues", type=int, nargs="+", default=None, metavar="Q",
        help="receive-queue counts to sweep (experiments with a queues "
        "parameter, e.g. extension_rss_scaling; others reject it)",
    )
    p_run.add_argument(
        "--drop", type=float, default=0.0, metavar="P",
        help="per-frame drop probability on every inbound link "
        "(experiments that accept impairments, e.g. figure7/figure12)",
    )
    p_run.add_argument(
        "--reorder", type=float, default=0.0, metavar="P",
        help="per-frame reorder probability on every inbound link",
    )
    p_run.add_argument(
        "--dup", type=float, default=0.0, metavar="P",
        help="per-frame duplication probability on every inbound link",
    )
    p_run.add_argument(
        "--fault-plan", metavar="FILE.json",
        help="arm a deterministic fault schedule (repro.faults.plan JSON) "
        "against every rig the experiment builds",
    )
    p_run.add_argument(
        "--impair-seed", type=int, default=971, metavar="N",
        help="root seed for the per-link impairment RNG streams",
    )
    p_run.add_argument(
        "--numa-nodes", type=int, default=None, metavar="N",
        help="NUMA node count for the memory-hierarchy rig (experiments "
        "that model it, e.g. extension_zero_copy; others reject it)",
    )
    p_run.add_argument(
        "--zero-copy", action="store_true",
        help="restrict the sweep to the zero-copy (page-remap) receive "
        "mode (experiments with a zero_copy parameter; others reject it)",
    )
    p_run.add_argument(
        "--profile-out", metavar="PATH",
        help="write the per-category cycle breakdown as JSON, keyed by "
        "the same Category names the figure tables use",
    )
    p_run.add_argument(
        "--obs-dir", metavar="DIR",
        help="turn on the tracer, metrics, cycle ledger and sampler, and "
        "write DIR/trace.json, DIR/observations.json, DIR/run.flame and "
        "DIR/dashboard.txt, one observation per run; refused with --jobs "
        "above 1 on a sweep (exit 2 before running)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--quick", action="store_true")
    p_all.add_argument("--sanitize", action="store_true", help=sanitize_help)
    p_all.add_argument("--racecheck", action="store_true", help=racecheck_help)
    p_all.add_argument("--csv-dir", metavar="DIR")
    p_all.add_argument("--jobs", type=int, default=None, metavar="N")
    p_all.set_defaults(fn=_cmd_all)

    p_rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_rep.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    p_rep.add_argument("--quick", action="store_true")
    p_rep.add_argument("--sanitize", action="store_true", help=sanitize_help)
    p_rep.add_argument("--racecheck", action="store_true", help=racecheck_help)
    p_rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    with _instrumented(args):
        return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
