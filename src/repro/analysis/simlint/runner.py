"""simlint runner: discover files, apply rules, collect violations.

Three passes compose here:

1. **Module pass** — every ``scope == "module"`` rule over each file's
   :class:`~repro.analysis.simlint.core.ModuleContext`.
2. **Program pass** — when any
   :class:`~repro.analysis.simlint.core.ProgramRule` is in the rule set,
   a single :class:`~repro.analysis.simlint.program.ProgramIndex` is
   built over *all* the files and each program rule runs against it.
   Per-line/per-file suppressions apply exactly as for module rules.
3. **Hygiene pass** — with ``unused-allow`` in the rule set, every allow
   comment that masked nothing across passes 1–2 is flagged as stale.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.simlint.core import (
    ModuleContext,
    ProgramRule,
    Rule,
    Suppressions,
    Violation,
)
from repro.analysis.simlint.program import ProgramIndex
from repro.analysis.simlint.rules import ALL_RULES, PROGRAM_RULES, RULES_BY_ID
from repro.analysis.simlint.rules.hygiene import UnusedAllowRule


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield .py files under the given paths, sorted for stable output."""
    seen: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                seen.append(path)
        else:
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        seen.append(os.path.join(dirpath, filename))
    return iter(sorted(set(seen)))


def _split_rules(
    rules: Optional[Iterable[Rule]],
) -> Tuple[List[Rule], List[ProgramRule], Optional[UnusedAllowRule]]:
    """(module rules, program rules, unused-allow rule or None)."""
    resolved = list(rules) if rules is not None else list(ALL_RULES)
    module_rules: List[Rule] = []
    program_rules: List[ProgramRule] = []
    hygiene: Optional[UnusedAllowRule] = None
    for rule in resolved:
        if isinstance(rule, UnusedAllowRule):
            hygiene = rule
        elif isinstance(rule, ProgramRule):
            program_rules.append(rule)
        else:
            module_rules.append(rule)
    return module_rules, program_rules, hygiene


def _active_rule_ids(
    module_rules: Sequence[Rule],
    program_rules: Sequence[ProgramRule],
    hygiene: Optional[UnusedAllowRule],
) -> Set[str]:
    ids = {rule.id for rule in module_rules}
    ids.update(rule.id for rule in program_rules)
    if hygiene is not None:
        ids.add(hygiene.id)
    return ids


def _known_rule_ids() -> Set[str]:
    return set(RULES_BY_ID)


def _check_module(
    ctx: ModuleContext, module_rules: Sequence[Rule]
) -> List[Violation]:
    out: List[Violation] = []
    for rule in module_rules:
        for violation in rule.check(ctx):
            if not ctx.suppressions.suppresses(violation):
                out.append(violation)
    return out


def _stale_allow_violations(
    hygiene: UnusedAllowRule,
    path: str,
    lines: Sequence[str],
    suppressions: Suppressions,
    active_ids: Set[str],
    known_ids: Set[str],
) -> List[Violation]:
    out: List[Violation] = []
    for entry, rule_id in suppressions.stale(active_ids, known_ids):
        snippet = lines[entry.line - 1].strip() if 0 < entry.line <= len(lines) else ""
        violation = hygiene.stale_violation(path, entry, rule_id, snippet)
        if not suppressions.suppresses(violation):
            out.append(violation)
    return out


def _lint_contexts(
    contexts: Sequence[ModuleContext], rules: Optional[Iterable[Rule]]
) -> List[Violation]:
    module_rules, program_rules, hygiene = _split_rules(rules)
    out: List[Violation] = []

    # ---- pass 1: module rules -----------------------------------------
    for ctx in contexts:
        out.extend(_check_module(ctx, module_rules))

    # ---- pass 2: program rules over one index of every file -----------
    if program_rules and contexts:
        by_path = {ctx.path: ctx for ctx in contexts}
        index = ProgramIndex(contexts)
        for rule in program_rules:
            for violation in rule.check_program(index):
                owner = by_path.get(violation.path)
                if owner is None or not owner.suppressions.suppresses(violation):
                    out.append(violation)

    # ---- pass 3: stale-allow hygiene ---------------------------------
    if hygiene is not None:
        active_ids = _active_rule_ids(module_rules, program_rules, hygiene)
        known_ids = _known_rule_ids()
        for ctx in contexts:
            out.extend(
                _stale_allow_violations(
                    hygiene, ctx.path, ctx.lines, ctx.suppressions, active_ids, known_ids
                )
            )

    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[Rule]] = None,
    relname: Optional[str] = None,
) -> List[Violation]:
    """Lint one in-memory module; the unit tests drive this directly.

    Program rules in the rule set run over a single-module index, so the
    fixture-driven tests exercise them through the same entry point.
    """
    return _lint_contexts([ModuleContext(path=path, source=source, relname=relname)], rules)


def lint_file(path: str, rules: Optional[Iterable[Rule]] = None) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, path=path, rules=rules, relname=path)


def lint_paths(
    paths: Sequence[str], rules: Optional[Iterable[Rule]] = None
) -> List[Violation]:
    """Lint a file tree: module pass, optional program pass, hygiene pass."""
    contexts = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            contexts.append(ModuleContext(path=path, source=fh.read(), relname=path))
    return _lint_contexts(contexts, rules)


def default_rules(whole_program: bool = False) -> List[Rule]:
    """The standard rule set; ``whole_program`` adds the ownership rules."""
    rules: List[Rule] = list(ALL_RULES)
    if whole_program:
        rules.extend(PROGRAM_RULES)
    return rules
