"""simlint command line.

Usage::

    python -m repro.analysis.simlint src/              # lint a tree
    python -m repro.analysis.simlint --whole-program src/repro
    python -m repro.analysis.simlint --list-rules      # what gets checked
    python -m repro.analysis.simlint --select wall-clock,float-eq src/
    python -m repro.analysis.simlint --format json src/ tests/

``--whole-program`` adds the cross-module ownership rules
(``cross-cpu-write``, ``uncharged-cycles``, ``slab-escape``), which build
a symbol table and call graph over every linted file.

Exit status: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.simlint.core import Rule
from repro.analysis.simlint.reporters import render_json, render_text
from repro.analysis.simlint.rules import ALL_RULES, PROGRAM_RULES, RULES_BY_ID
from repro.analysis.simlint.runner import default_rules, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlint",
        description="AST lint for the simulation's determinism and protocol contracts",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all module rules)",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="also run the cross-module ownership rules "
        "(cross-cpu-write, uncharged-cycles, slab-escape)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule ids and what they enforce, then exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:22s} {rule.summary}")
        for rule in PROGRAM_RULES:
            print(f"{rule.id:22s} [whole-program] {rule.summary}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("simlint: error: no paths given", file=sys.stderr)
        return 2

    rules: List[Rule] = default_rules(whole_program=args.whole_program)
    if args.select:
        wanted = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in wanted if r not in RULES_BY_ID]
        if unknown:
            print(
                f"simlint: error: unknown rule id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return 2
        rules = [RULES_BY_ID[r] for r in wanted]

    violations = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        print(render_json(violations))
    else:
        print(render_text(violations))
    return 1 if violations else 0
