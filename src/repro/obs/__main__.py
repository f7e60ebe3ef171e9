"""Schema checks and differential profiling for exported observability JSON.

Usage::

    python -m repro.obs check obs/*      # every file `repro run --obs-dir obs` wrote
    python -m repro.obs diff A.json B.json [--expect-empty] [--json]

``check`` auto-detects the document kind (Chrome trace, metrics dump,
observation bundle, packet-capture export, cycle ledger, profile,
collapsed-stack flame file, or sampler dashboard), validates its shape,
and prints a one-line summary per file.  Ring truncation
(``events_dropped`` / ``records_dropped``) is reported as a loud WARNING —
the totals-based reconciliation still holds, but per-event artifacts are
incomplete.  Exit status 0 iff every file validates — this is what CI's
``obs`` job runs on the directory of an observed run.

``diff`` extracts the cycle ledgers from two exports (raw ledgers,
observations, or ``{"runs": [...]}`` bundles — paired by index), prints the
exact differential profile, and fails on any reconciliation problem.
``--expect-empty`` additionally fails if the ledgers differ at all (CI's
self-diff determinism gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

from repro.obs.diff import diff_ledgers
from repro.obs.flame import check_flame_text
from repro.obs.ledger import (
    SCHEMA as LEDGER_SCHEMA,
    check_ledger_document,
    ledger_documents,
)
from repro.obs.sampler import check_dashboard_text
from repro.obs.trace import validate_chrome_trace

_METRIC_KINDS = {"counter", "gauge", "histogram"}


def _check_metrics(doc: dict) -> List[str]:
    problems = []
    for name, entry in doc.items():
        if not isinstance(entry, dict) or "kind" not in entry or "value" not in entry:
            problems.append(f"metric {name!r} is not a {{kind, value}} object")
        elif entry["kind"] not in _METRIC_KINDS:
            problems.append(f"metric {name!r} has unknown kind {entry['kind']!r}")
        if len(problems) >= 20:
            break
    return problems


def _check_series(series_doc: dict) -> List[str]:
    """Validate a sampler export: ``{"series": {name: {t, v}}}`` (or just
    the inner ``{name: {t, v}}`` map)."""
    problems = []
    series_map = series_doc.get("series", series_doc)
    if not isinstance(series_map, dict):
        return ["series is not an object"]
    for name, series in series_map.items():
        if not isinstance(series, dict):
            problems.append(f"series {name!r} is not an object")
            continue
        t, v = series.get("t"), series.get("v")
        if not isinstance(t, list) or not isinstance(v, list) or len(t) != len(v):
            problems.append(f"series {name!r}: t/v must be equal-length lists")
    return problems


def _check_capture(doc: dict) -> List[str]:
    problems = []
    records = doc.get("records")
    if not isinstance(records, list):
        return ["capture export has no records list"]
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "time" not in rec:
            problems.append(f"records[{i}] is not a timestamped object")
        if len(problems) >= 20:
            break
    return problems


def _check_breakdown(doc: dict) -> List[str]:
    """Validate a ``--profile-out`` document.

    Breakdown experiments export ``{"breakdown": {label: {category: num}}}``;
    other experiments export their ``{"columns", "rows"}`` unchanged.
    """
    problems = []
    if "breakdown" in doc:
        breakdown = doc["breakdown"]
        if not isinstance(breakdown, dict):
            return ["breakdown is not an object"]
        for label, cats in breakdown.items():
            if not isinstance(cats, dict):
                problems.append(f"breakdown[{label!r}] is not a category map")
                continue
            for cat, value in cats.items():
                if not isinstance(value, (int, float)):
                    problems.append(f"breakdown[{label!r}][{cat!r}] is not numeric")
        return problems
    rows = doc.get("rows")
    if not isinstance(rows, list):
        return ["profile export has neither breakdown nor rows"]
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"rows[{i}] is not an object")
    return problems


def check_document(doc: object) -> Tuple[str, List[str]]:
    """Classify a parsed JSON document and validate it; returns (kind, problems)."""
    if isinstance(doc, dict) and doc.get("schema") == LEDGER_SCHEMA:
        return "cycle-ledger", check_ledger_document(doc)
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "chrome-trace", validate_chrome_trace(doc)
    if isinstance(doc, dict) and "records" in doc:
        return "capture", _check_capture(doc)
    if isinstance(doc, dict) and "runs" in doc:
        problems = []
        if not isinstance(doc["runs"], list):
            problems.append("runs is not a list")
        else:
            for i, run in enumerate(doc["runs"]):
                kind, sub = check_document(run)
                problems += [f"runs[{i}] ({kind}): {p}" for p in sub]
        return "observation-bundle", problems
    if isinstance(doc, dict) and "experiment" in doc and (
        "breakdown" in doc or "rows" in doc
    ):
        return "profile", _check_breakdown(doc)
    if isinstance(doc, dict) and (
        "trace" in doc or "metrics" in doc or "series" in doc or "ledger" in doc
    ):
        problems = []
        if "metrics" in doc:
            problems += _check_metrics(doc["metrics"])
        if "series" in doc:
            problems += _check_series(doc["series"])
        if "trace" in doc and "span_counts" not in doc["trace"]:
            problems.append("trace summary has no span_counts")
        if "ledger" in doc:
            problems += [f"ledger: {p}" for p in check_ledger_document(doc["ledger"])]
        return "observation", problems
    if isinstance(doc, dict) and doc and all(
        isinstance(v, dict) and "kind" in v for v in doc.values()
    ):
        return "metrics", _check_metrics(doc)
    return "unknown", ["unrecognized observability document"]


def collect_warnings(doc: object, prefix: str = "") -> List[str]:
    """Non-fatal-but-loud conditions: dropped trace events / capture records.

    A truncated ring means per-event artifacts are incomplete even though
    the totals (span counts, ledger cells) stay exact; surface it so nobody
    trusts a partial timeline silently.
    """
    warnings: List[str] = []
    if not isinstance(doc, dict):
        return warnings
    dropped = doc.get("records_dropped")
    if isinstance(dropped, int) and dropped > 0:
        warnings.append(
            f"{prefix}capture ring dropped {dropped} record(s) — "
            "oldest packets are missing from the export"
        )
    trace = doc.get("trace")
    if isinstance(trace, dict):
        dropped = trace.get("events_dropped")
        if isinstance(dropped, int) and dropped > 0:
            warnings.append(
                f"{prefix}trace ring dropped {dropped} event(s) — "
                "oldest lifecycle spans are missing from the export"
            )
    for i, run in enumerate(doc.get("runs", []) or []):
        warnings += collect_warnings(run, prefix=f"runs[{i}]: ")
    return warnings


def _check_one_file(path: str) -> int:
    """Validate one artifact file; returns 0/1.  Non-JSON files are
    validated as a sampler dashboard when they open with ``== ``, else as
    collapsed-stack flame text."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"{path}: unreadable ({exc})")
        return 1
    try:
        doc = json.loads(text)
    except ValueError:
        if text.startswith("== "):
            kind, problems = "dashboard", check_dashboard_text(text)
        else:
            kind, problems = "flame", check_flame_text(text)
    else:
        kind, problems = check_document(doc)
        for warning in collect_warnings(doc):
            print(f"{path}: WARNING: {warning}")
    if problems:
        print(f"{path}: {kind}: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"{path}: {kind}: ok")
    return 0


def _load_ledgers(path: str) -> List[dict]:
    with open(path) as fh:
        doc = json.load(fh)
    ledgers = ledger_documents(doc)
    if not ledgers:
        raise ValueError(f"{path}: no cycle-ledger documents found")
    return ledgers


def _run_diff(args) -> int:
    try:
        ledgers_a = _load_ledgers(args.file_a)
        ledgers_b = _load_ledgers(args.file_b)
    except (OSError, ValueError) as exc:
        print(exc)
        return 1
    if len(ledgers_a) != len(ledgers_b):
        print(
            f"cannot pair runs: {args.file_a} has {len(ledgers_a)} ledger(s), "
            f"{args.file_b} has {len(ledgers_b)}"
        )
        return 1
    status = 0
    reports = []
    for a, b in zip(ledgers_a, ledgers_b):
        diff = diff_ledgers(a, b)
        reports.append(diff)
        if diff.problems:
            status = 1
        if args.expect_empty and not diff.is_empty():
            status = 1
    if args.json:
        print(json.dumps([d.to_json() for d in reports], indent=1, sort_keys=True))
    else:
        for diff in reports:
            print(diff.format_report())
    if args.expect_empty and any(not d.is_empty() for d in reports):
        print("FAIL: expected identical ledgers, found differences")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs")
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="validate exported observability artifacts")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_diff = sub.add_parser(
        "diff", help="exact differential profile of two cycle-ledger exports"
    )
    p_diff.add_argument("file_a", metavar="A.json")
    p_diff.add_argument("file_b", metavar="B.json")
    p_diff.add_argument(
        "--expect-empty",
        action="store_true",
        help="fail if the ledgers differ at all (determinism gate)",
    )
    p_diff.add_argument(
        "--json", action="store_true", help="emit the diff as JSON instead of text"
    )
    args = parser.parse_args(argv)

    if args.command == "diff":
        return _run_diff(args)
    status = 0
    for path in args.files:
        status |= _check_one_file(path)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
