"""simlint core: rule protocol, violations, per-module context, suppressions.

simlint is the repo's custom AST linter.  It encodes the *contracts* the
simulation depends on — determinism (seeded randomness only, no wall-clock),
modulo-2**32 sequence arithmetic through :mod:`repro.tcp.seqmath`,
write-through packet mutation, picklable sweep workers — as machine-checkable
rules, so refactors cannot silently break reproducibility.

Rules come in two scopes.  *Module* rules (the default) see one parsed file
at a time through :class:`ModuleContext`.  *Program* rules subclass
:class:`ProgramRule` and see the whole-tree symbol table and call graph
built by :mod:`repro.analysis.simlint.program`, which is what lets them
reason about reachability ("does this handler ever reach ``Cpu.consume``?")
across module boundaries.

Suppressions
------------
A violation can be acknowledged in place (the marker must be in a real
comment — string literals, including this docstring, do not count)::

    wall = time.perf_counter() - t0  # simlint: allow(wall-clock) -- harness timing

or for a whole file, with ``file-`` prefixed to ``allow`` (put anywhere in
the file, conventionally near the top).  Multiple rule ids may be listed,
comma-separated.  The ``-- reason`` tail is optional but encouraged; it is
for the human reviewer, not the linter.  Suppressions that stop masking any
finding are themselves flagged by the ``unused-allow`` rule (the analogue
of ruff's unused-noqa check).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from repro.analysis.simlint.program import ProgramIndex

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<scope>file-)?allow\(\s*(?P<rules>[a-z0-9_,\s-]+)\)"
)


@dataclass(frozen=True)
class Violation:
    """One rule finding at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col + 1,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class AllowEntry:
    """One ``# simlint: allow(...)`` comment, with usage tracking."""

    line: int
    file_scope: bool
    rules: Set[str]
    #: Rule ids from :attr:`rules` that actually suppressed a finding.
    used: Set[str] = field(default_factory=set)


class Suppressions:
    """Parsed ``# simlint: allow(...)`` comments for one file.

    Parsing is token-based: only real COMMENT tokens count, so an allow
    marker quoted inside a docstring or string literal (e.g. documentation
    showing the syntax) neither suppresses findings nor registers as a
    stale suppression.  Files that fail to tokenize fall back to the old
    line-regex scan so broken-syntax fixtures still behave.
    """

    def __init__(self, entries: Optional[List[AllowEntry]] = None) -> None:
        self.entries: List[AllowEntry] = entries if entries is not None else []

    # ------------------------------------------------------------------
    @classmethod
    def scan(cls, lines: List[str]) -> "Suppressions":
        source = "\n".join(lines)
        entries: List[AllowEntry] = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            tokens = None
        if tokens is not None:
            candidates: Iterable[Tuple[int, str]] = (
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            )
        else:  # pragma: no cover - requires untokenizable source
            candidates = ((lineno, text) for lineno, text in enumerate(lines, start=1))
        for lineno, text in candidates:
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
            entries.append(
                AllowEntry(line=lineno, file_scope=bool(match.group("scope")), rules=rules)
            )
        return cls(entries)

    # ------------------------------------------------------------------
    # compatibility views (rules/tests that inspect the parsed shape)
    # ------------------------------------------------------------------
    @property
    def file_rules(self) -> Set[str]:
        out: Set[str] = set()
        for entry in self.entries:
            if entry.file_scope:
                out |= entry.rules
        return out

    @property
    def line_rules(self) -> Dict[int, Set[str]]:
        out: Dict[int, Set[str]] = {}
        for entry in self.entries:
            if not entry.file_scope:
                out.setdefault(entry.line, set()).update(entry.rules)
        return out

    # ------------------------------------------------------------------
    def suppresses(self, violation: Violation) -> bool:
        """True when some allow covers ``violation`` (marking it as used)."""
        hit = False
        for entry in self.entries:
            if violation.rule not in entry.rules:
                continue
            if entry.file_scope or entry.line == violation.line:
                entry.used.add(violation.rule)
                hit = True
        return hit

    def stale(
        self, active_rules: Set[str], known_rules: Set[str]
    ) -> Iterator[Tuple[AllowEntry, str]]:
        """Yield (entry, rule-id) for every allow that masked nothing.

        A rule id is only judged when it was actually *running* this pass
        (``active_rules``) or is unknown to the registry entirely (a typo
        or a rule that no longer exists — definitionally stale).
        """
        for entry in self.entries:
            for rule in sorted(entry.rules):
                if rule == "unused-allow":
                    continue  # the meta-rule cannot mask ordinary findings
                if rule in entry.used:
                    continue
                if rule in known_rules and rule not in active_rules:
                    continue  # not judged this pass: can't tell if it's stale
                yield entry, rule


class ModuleContext:
    """Everything a rule needs to inspect one parsed module."""

    def __init__(self, path: str, source: str, relname: Optional[str] = None) -> None:
        self.path = path
        #: Forward-slash path used for module-identity checks (exemptions).
        self.relname = (relname or path).replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.suppressions = Suppressions.scan(self.lines)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # ------------------------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def in_function(self, node: ast.AST) -> bool:
        """True when ``node`` executes inside some function body (i.e. not at
        import time).  Class bodies *do* execute at import time."""
        return any(
            isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for a in self.ancestors(node)
        )

    def module_is(self, *suffixes: str) -> bool:
        """True when this module's path ends with any of ``suffixes``."""
        return any(self.relname.endswith(suffix) for suffix in suffixes)

    def module_in(self, *fragments: str) -> bool:
        """True when any path fragment (e.g. ``"/net/"``) appears in the path."""
        name = "/" + self.relname
        return any(fragment in name for fragment in fragments)

    def snippet(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: one contract, one stable id, one ``check`` pass."""

    id: str = ""
    summary: str = ""
    #: "module" rules see one file; "program" rules see the whole tree.
    scope: str = "module"

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def violation(self, ctx: ModuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=ctx.snippet(node),
        )


class ProgramRule(Rule):
    """A rule that inspects the whole-program index instead of one module.

    Subclasses implement :meth:`check_program`; :meth:`check` is not used.
    The runner applies per-module suppressions afterwards exactly as for
    module rules (an allow comment on the flagged line still works).
    """

    scope = "program"

    def check(self, ctx: ModuleContext) -> Iterable[Violation]:  # pragma: no cover
        return ()

    def check_program(self, index: "ProgramIndex") -> Iterable[Violation]:
        raise NotImplementedError

    def program_violation(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=ctx.snippet(node),
        )


def attribute_chain(node: ast.AST) -> Tuple[Optional[str], List[str]]:
    """Decompose ``a.b.c.d`` into (root name, ["b", "c", "d"]).

    The root is ``None`` when the chain hangs off something other than a
    plain name (a call result, a subscript, ...).
    """
    attrs: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    attrs.reverse()
    if isinstance(current, ast.Name):
        return current.id, attrs
    return None, attrs
