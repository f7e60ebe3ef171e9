"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run figure7 [--quick] [--sanitize] [--csv out.csv] [--jobs N]
    python -m repro run figure7 --quick --trace trace.json --metrics-out m.json \
        --sample-interval 0.005 --profile-out profile.json
    python -m repro run extension_rss_scaling [--queues 1 2 4 8] [--jobs N]
    python -m repro run figure7 --quick --drop 0.01 --reorder 0.02 --dup 0.01
    python -m repro run figure12 --quick --fault-plan plan.json --jobs -1
    python -m repro run extension_resilience [--quick] [--jobs N] [--sanitize]
    python -m repro all [--quick] [--csv-dir results/] [--jobs N]
    python -m repro report [--quick] [EXPERIMENTS.md]

``--sanitize`` (on ``run``/``all``/``report``) installs the runtime
invariant checker (:mod:`repro.analysis.sanitizer`) for the whole run,
including sweep worker processes.  Expect a slowdown; any protocol or
conservation violation aborts with a precise error instead of a wrong
number.

``--racecheck`` (same subcommands) installs the cross-CPU ownership race
detector (:mod:`repro.analysis.racecheck`): any access to another CPU's
queue state that is not charged through the CrossCpuCostModel (or
explicitly handed off) aborts with both sim-time stacks.  Checked runs
produce bit-identical rows; composes with ``--sanitize``.

Wire-impairment flags (on ``run``; see :mod:`repro.faults`): ``--drop`` /
``--reorder`` / ``--dup`` apply independent per-frame probabilities to
every inbound link of every rig the experiment builds; ``--fault-plan
FILE.json`` arms a deterministic fault schedule on top.  Experiments that
do not take impairments reject the flags loudly rather than ignoring them.
Impaired rows stay bit-identical between serial and ``--jobs`` runs.

Observability flags (see :mod:`repro.obs`): ``--trace PATH`` writes a
merged Chrome trace-event JSON (open at ui.perfetto.dev); ``--metrics-out
PATH`` writes every run's metrics registry; ``--sample-interval SEC``
samples throughput/cwnd/queue-depth series in sim time and prints a text
dashboard.  ``run`` alone also takes ``--ledger-out PATH``, the exact
cycle ledger — every cycle attributed along (cpu, category, lifecycle
stage, flow class, sim-time phase), reconciled bit-exactly against the
profiler — and ``--flame-out PATH``, the same attribution as
collapsed-stack flamegraph text.  Ledger exports feed ``python -m
repro.obs diff A.json B.json`` (exact differential profiling).  All five
are collected in-process, so none of them combines with ``--jobs`` above
one worker on an experiment that sweeps in worker processes: that exits 2
before anything runs instead of writing a partial export.
``--profile-out PATH`` (on ``run``) writes the per-category cycle
breakdown from the rows, so it works with ``--jobs``.  Measured rows are
bit-identical with or without any of these flags.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.analysis.export import breakdown_to_json, result_to_csv, results_to_csv_files
from repro.analysis.validation import validate
from repro.experiments.runner import REGISTRY, run_all, run_experiment
from repro.parallel import resolve_jobs

#: Flags whose collectors live in this process (``args`` attribute names).
_OBS_FLAGS = ("trace", "metrics_out", "sample_interval", "ledger_out", "flame_out")


def _obs_flags_given(args) -> List[str]:
    return [
        "--" + name.replace("_", "-") for name in _OBS_FLAGS if getattr(args, name, None)
    ]


def _obs_jobs_error(args) -> Optional[str]:
    """Why this command line would export a partial observation, if it would.

    The collectors run in this process, so sweep points sent to ``--jobs``
    worker processes would be missing from every export.
    """
    flags = _obs_flags_given(args)
    jobs = getattr(args, "jobs", None)
    if not flags or resolve_jobs(jobs) <= 1:
        return None
    ids = [args.experiment] if args.command == "run" else list(REGISTRY)
    swept = [eid for eid in ids if "jobs" in inspect.signature(REGISTRY[eid]).parameters]
    if not swept:
        return None
    return (
        f"{', '.join(flags)} cannot be combined with --jobs {jobs}: "
        f"{', '.join(swept)} would run sweep points in worker processes, "
        "which the in-process collectors never see; run without --jobs"
    )


@contextmanager
def _observed(args) -> Iterator[None]:
    """Turn CLI observability flags into the process-global obs config for
    the duration of one command, and back to all-off however it ends."""
    if not _obs_flags_given(args):
        yield
        return
    from repro import obs

    obs.configure(
        trace=bool(args.trace),
        metrics=bool(args.metrics_out),
        sample_interval=args.sample_interval,
        ledger=bool(getattr(args, "ledger_out", None) or getattr(args, "flame_out", None)),
    )
    try:
        yield
    finally:
        obs.reset()


def _obs_export(args) -> None:
    """Write/print everything the finished runs collected."""
    if not _obs_flags_given(args):
        return
    from repro import obs

    done = obs.drain_completed()
    if args.trace:
        doc = obs.completed_chrome_trace(done)
        with open(args.trace, "w") as fh:
            json.dump(doc, fh)
        spans = sum(len(o.tracer) for o in done if o.tracer is not None)
        print(f"wrote {args.trace} ({spans} events, {len(done)} runs; "
              "open at ui.perfetto.dev)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump({"runs": [o.to_json() for o in done]}, fh, indent=1)
        print(f"wrote {args.metrics_out} ({len(done)} runs)")
    ledger_out = getattr(args, "ledger_out", None)
    if ledger_out:
        doc = {"runs": [o.to_json() for o in done if o.ledger is not None]}
        with open(ledger_out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {ledger_out} ({len(doc['runs'])} ledgers; "
              "diff with `python -m repro.obs diff`)")
    flame_out = getattr(args, "flame_out", None)
    if flame_out:
        ledgers = [o.ledger.to_json() for o in done if o.ledger is not None]
        with open(flame_out, "w") as fh:
            fh.write(obs.collapsed_text(ledgers))
        print(f"wrote {flame_out} ({len(ledgers)} runs, collapsed-stack "
              "format for flamegraph.pl/speedscope)")
    if args.sample_interval:
        for o in done:
            if o.sampler is not None and o.sampler.samples_taken:
                print()
                print(f"== {o.label} ==")
                latency = (
                    o.tracer.latency_quantiles() if o.tracer is not None else None
                )
                print(o.sampler.render_dashboard(latency=latency))


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
    with _observed(args):
        try:
            result = run_experiment(
                args.experiment, quick=args.quick, jobs=args.jobs, queues=args.queues,
                impairments=_impairments_from_args(args),
                numa_nodes=args.numa_nodes,
                zero_copy=True if args.zero_copy else None,
                ledger=bool(args.ledger_out or args.flame_out),
            )
        except (KeyError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2
        _print_result(result, args.csv)
        if args.profile_out:
            with open(args.profile_out, "w") as fh:
                json.dump(breakdown_to_json(result), fh, indent=1)
            print(f"wrote {args.profile_out}")
        _obs_export(args)
    return 0


def _cmd_all(args) -> int:
    with _observed(args):
        results = run_all(quick=args.quick, jobs=args.jobs)
        for result in results:
            _print_result(result)
            print()
        if args.csv_dir:
            paths = results_to_csv_files(results, args.csv_dir)
            print(f"wrote {len(paths)} CSV files to {args.csv_dir}")
        _obs_export(args)
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

    def add_obs_flags(sub_parser) -> None:
        sub_parser.add_argument(
            "--trace", metavar="PATH",
            help="record packet-lifecycle spans and write a Chrome "
            "trace-event JSON (view at ui.perfetto.dev); like every "
            "observability flag, refused with --jobs above 1 on sweep "
            "experiments, whose worker processes it cannot see",
        )
        sub_parser.add_argument(
            "--metrics-out", metavar="PATH",
            help="register every subsystem's counters/gauges/histograms "
            "and write one JSON document per run",
        )
        sub_parser.add_argument(
            "--sample-interval", type=float, default=None, metavar="SEC",
            help="sample throughput/cwnd/queue-depth series every SEC "
            "simulated seconds and print a text dashboard (with per-stage "
            "sojourn p50/p90/p99 when --trace is also on)",
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
    add_obs_flags(p_run)
    p_run.add_argument(
        "--ledger-out", metavar="PATH",
        help="attribute every CPU cycle along (cpu, category, stage, "
        "flow, phase) and write the exact ledgers as JSON; only "
        "experiments whose runs are observable accept this "
        "(loud error otherwise)",
    )
    p_run.add_argument(
        "--flame-out", metavar="PATH",
        help="write the cycle ledger as collapsed-stack flamegraph "
        "text (flamegraph.pl / speedscope)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--quick", action="store_true")
    p_all.add_argument("--sanitize", action="store_true", help=sanitize_help)
    p_all.add_argument("--racecheck", action="store_true", help=racecheck_help)
    p_all.add_argument("--csv-dir", metavar="DIR")
    p_all.add_argument("--jobs", type=int, default=None, metavar="N")
    add_obs_flags(p_all)
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
    error = _obs_jobs_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if getattr(args, "sanitize", False):
        from repro.analysis.sanitizer import install

        install()
        # Sweep worker processes read this in their pool initializer so the
        # sanitizer follows the run across process boundaries.
        os.environ["REPRO_SANITIZE"] = "1"
    if getattr(args, "racecheck", False):
        from repro.analysis.racecheck import install as install_racecheck

        install_racecheck()
        os.environ["REPRO_RACECHECK"] = "1"
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
