"""Whole-program analysis for simlint: symbol table + call graph.

Module rules see one file; the ownership rules (``cross-cpu-write``,
``uncharged-cycles``, ``slab-escape``) need to know *what calls what*
across the tree — whether a driver ISR ever reaches ``Cpu.consume``,
which execution contexts can reach a kernel helper, where a slab packet
escapes its free.  :class:`ProgramIndex` builds that view from plain
``ast`` without importing any target module:

* every class (with its base-class names) and every function/method,
  keyed by dotted qualname (``repro.host.kernel.Kernel.app_drain``);
* per function: the calls it makes, the attribute writes it performs
  (split into writes through ``self`` and writes to other objects), and
  cheap semantic flags the rules consume (calls ``consume``, references
  the cross-CPU cost model, switches the current CPU, ...);
* a resolved call graph.  Resolution is deliberately CHA-flavoured and
  duck-typed, matching how the codebase composes (machines duck-type
  each other rather than subclassing): ``self.m()`` resolves through the
  static MRO *plus* subclass overrides; ``expr.m()`` resolves to every
  same-named method in the program; a bare ``f()`` resolves to the
  module's own defs and ``from``-imports.  Method calls that resolve to
  nothing in-tree (``self.fn()`` trampolines, stored callbacks) mark the
  caller :attr:`FunctionInfo.unresolved_calls`, which reachability-based
  rules treat as "could do anything" and stand down — over-approximation
  must produce silence, never false findings.

The index is pure data: building it never executes repo code, so it is
safe to run over broken or import-cycled trees.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.simlint.core import ModuleContext, attribute_chain

#: Method names that mutate their receiver in place; a call like
#: ``self.pending.append(x)`` is a state mutation even though it contains
#: no assignment node.
_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "extend",
    "insert",
    "remove",
    "pop",
    "popleft",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
    "sort",
}

_BUILTIN_NAMES = frozenset(dir(builtins))


def module_name_of(relname: str) -> str:
    """``src/repro/mq/kernel.py`` -> ``repro.mq.kernel`` (best effort)."""
    name = relname.replace("\\", "/")
    if name.endswith(".py"):
        name = name[: -len(".py")]
    parts = [p for p in name.split("/") if p not in ("", ".", "..")]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class FunctionInfo:
    """Facts about one function or method, extracted from its AST."""

    __slots__ = (
        "qualname",
        "name",
        "ctx",
        "class_name",
        "node",
        "self_calls",
        "attr_calls",
        "plain_calls",
        "submit_targets",
        "self_writes",
        "foreign_writes",
        "fresh_names",
        "mutates_state",
        "calls_consume",
        "references_cross",
        "switches_cpu",
        "edges",
        "unresolved_calls",
    )

    def __init__(
        self,
        qualname: str,
        name: str,
        ctx: ModuleContext,
        class_name: Optional[str],
        node: ast.AST,
    ) -> None:
        self.qualname = qualname
        self.name = name
        self.ctx = ctx
        self.class_name = class_name
        self.node = node
        #: Method names called through ``self``.
        self.self_calls: Set[str] = set()
        #: Method names called through any other expression.
        self.attr_calls: Set[str] = set()
        #: Bare names called (``f(...)``), excluding builtins.
        self.plain_calls: Set[str] = set()
        #: ``self.X`` attributes passed as the callback to ``*.submit(...)``
        #: — the CPU task entry points the uncharged-cycles rule roots on.
        self.submit_targets: Set[str] = set()
        #: Attribute names written through ``self``.
        self.self_writes: Set[str] = set()
        #: (root name, attribute path, node) for writes to non-self objects.
        self.foreign_writes: List[Tuple[str, Tuple[str, ...], ast.AST]] = []
        #: Local names bound from a call result (freshly constructed or
        #: fetched objects whose ownership this function establishes).
        self.fresh_names: Set[str] = set()
        self.mutates_state = False
        self.calls_consume = False
        self.references_cross = False
        self.switches_cpu = False
        #: Resolved callee qualnames (filled by ProgramIndex._resolve).
        self.edges: Set[str] = set()
        #: True when some method call resolved to nothing in-tree.
        self.unresolved_calls = False


class ClassInfo:
    """One class definition: its methods and base-class names."""

    __slots__ = ("qualname", "name", "module", "bases", "methods")

    def __init__(self, qualname: str, name: str, module: str, bases: List[str]) -> None:
        self.qualname = qualname
        self.name = name
        self.module = module
        self.bases = bases
        #: method name -> FunctionInfo qualname
        self.methods: Dict[str, str] = {}


class ProgramIndex:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.contexts: List[ModuleContext] = list(contexts)
        #: dotted module name -> ModuleContext
        self.modules: Dict[str, ModuleContext] = {}
        #: qualname -> FunctionInfo (methods and module-level functions)
        self.functions: Dict[str, FunctionInfo] = {}
        #: class name -> every ClassInfo with that (unqualified) name
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: class qualname -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: method/function name -> every FunctionInfo carrying that name
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: module name -> {local name -> imported dotted origin}
        self._imports: Dict[str, Dict[str, str]] = {}
        #: module name -> {top-level def name -> qualname}
        self._module_defs: Dict[str, Dict[str, str]] = {}
        #: class name -> direct subclass ClassInfos (by base-name match)
        self._subclasses: Dict[str, List[ClassInfo]] = {}
        for ctx in self.contexts:
            self._index_module(ctx)
        self._link_subclasses()
        for info in self.functions.values():
            self._resolve(info)

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index_module(self, ctx: ModuleContext) -> None:
        module = module_name_of(ctx.relname)
        self.modules[module] = ctx
        imports: Dict[str, str] = {}
        defs: Dict[str, str] = {}
        self._imports[module] = imports
        self._module_defs[module] = defs
        for node in ctx.tree.body:
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = alias.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module}.{node.name}"
                defs[node.name] = qualname
                self._add_function(qualname, node.name, ctx, None, node)
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, ctx, node)

    def _index_class(self, module: str, ctx: ModuleContext, node: ast.ClassDef) -> None:
        bases: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        cls = ClassInfo(f"{module}.{node.name}", node.name, module, bases)
        self.classes[cls.qualname] = cls
        self.classes_by_name.setdefault(node.name, []).append(cls)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{cls.qualname}.{item.name}"
                cls.methods[item.name] = qualname
                self._add_function(qualname, item.name, ctx, node.name, item)

    def _add_function(
        self,
        qualname: str,
        name: str,
        ctx: ModuleContext,
        class_name: Optional[str],
        node: ast.AST,
    ) -> None:
        info = FunctionInfo(qualname, name, ctx, class_name, node)
        self._extract(info)
        self.functions[qualname] = info
        self.by_name.setdefault(name, []).append(info)

    # ------------------------------------------------------------------
    # per-function fact extraction
    # ------------------------------------------------------------------
    def _extract(self, info: FunctionInfo) -> None:
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                self._extract_call(info, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._extract_write(info, target)
                if isinstance(node.value, ast.Call):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            info.fresh_names.add(target.id)
            elif isinstance(node, ast.AugAssign):
                self._extract_write(info, node.target)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._extract_write(info, node.target)
            elif isinstance(node, ast.Attribute):
                if node.attr == "cross" or node.attr == "CrossCpuCostModel":
                    info.references_cross = True
            elif isinstance(node, ast.Name) and node.id == "CrossCpuCostModel":
                info.references_cross = True

    def _extract_call(self, info: FunctionInfo, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id not in _BUILTIN_NAMES:
                info.plain_calls.add(func.id)
            return
        if not isinstance(func, ast.Attribute):
            return
        name = func.attr
        root, _attrs = attribute_chain(func)
        if root == "self" and isinstance(func.value, ast.Name):
            info.self_calls.add(name)
        else:
            info.attr_calls.add(name)
        if name == "consume":
            info.calls_consume = True
        elif name == "enter_cpu":
            info.switches_cpu = True
        elif name in ("bounce_cycles",):
            info.references_cross = True
        elif name in _MUTATOR_METHODS and isinstance(func.value, ast.Attribute):
            # e.g. ``self.pending.append(x)`` / ``sock.pending_items.extend``
            info.mutates_state = True
        if name == "submit" and node.args:
            arg = node.args[0]
            if (
                isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"
            ):
                info.submit_targets.add(arg.attr)

    def _extract_write(self, info: FunctionInfo, target: ast.AST) -> None:
        # Writes through a subscript of an attribute (``self.conns[k] = v``)
        # count as writes to the attribute's object.
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._extract_write(info, elt)
            return
        if not isinstance(target, ast.Attribute):
            return
        info.mutates_state = True
        root, attrs = attribute_chain(target)
        if attrs and attrs[-1] == "_current_idx":
            info.switches_cpu = True
        if root == "self":
            if attrs:
                info.self_writes.add(attrs[0])
        elif root is not None:
            info.foreign_writes.append((root, tuple(attrs), target))

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def _link_subclasses(self) -> None:
        for cls in self.classes.values():
            for base in cls.bases:
                self._subclasses.setdefault(base, []).append(cls)

    def _mro_classes(self, cls: ClassInfo) -> List[ClassInfo]:
        """The static MRO by base-name match, breadth-first, cycles cut."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            for base in current.bases:
                frontier.extend(self.classes_by_name.get(base, []))
        return out

    def _subclass_closure(self, cls: ClassInfo) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        frontier = list(self._subclasses.get(cls.name, []))
        while frontier:
            current = frontier.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            frontier.extend(self._subclasses.get(current.name, []))
        return out

    def resolve_self_call(self, info: FunctionInfo, method: str) -> List[FunctionInfo]:
        """``self.method()`` inside ``info``'s class: static MRO hit plus
        any override in a (transitive) subclass — ``self`` may be one."""
        if info.class_name is None:
            return self.resolve_duck_call(method)
        out: List[FunctionInfo] = []
        seen: Set[str] = set()
        for cls in self.classes_by_name.get(info.class_name, []):
            candidates = self._mro_classes(cls) + self._subclass_closure(cls)
            for candidate in candidates:
                qualname = candidate.methods.get(method)
                if qualname is not None and qualname not in seen:
                    seen.add(qualname)
                    out.append(self.functions[qualname])
        return out

    def resolve_duck_call(self, method: str) -> List[FunctionInfo]:
        """``expr.method()``: every same-named method/function in the tree."""
        return list(self.by_name.get(method, []))

    def resolve_plain_call(self, info: FunctionInfo, name: str) -> List[FunctionInfo]:
        """``name()``: same-module defs, then ``from``-imports (a class name
        resolves to its ``__init__``)."""
        module = module_name_of(info.ctx.relname)
        defs = self._module_defs.get(module, {})
        if name in defs:
            return [self.functions[defs[name]]]
        for cls in self.classes.values():
            if cls.module == module and cls.name == name:
                init = cls.methods.get("__init__")
                return [self.functions[init]] if init else []
        origin = self._imports.get(module, {}).get(name)
        if origin is not None:
            head, _, leaf = origin.rpartition(".")
            if head in self._module_defs and leaf in self._module_defs[head]:
                return [self.functions[self._module_defs[head][leaf]]]
            cls = self.classes.get(origin)
            if cls is not None:
                init = cls.methods.get("__init__")
                return [self.functions[init]] if init else []
        return []

    def _resolve(self, info: FunctionInfo) -> None:
        for method in info.self_calls:
            targets = self.resolve_self_call(info, method)
            if targets:
                info.edges.update(t.qualname for t in targets)
            else:
                info.unresolved_calls = True
        for method in info.attr_calls:
            targets = self.resolve_duck_call(method)
            if targets:
                info.edges.update(t.qualname for t in targets)
            elif method not in _MUTATOR_METHODS and not self._is_stdlib_method(method):
                info.unresolved_calls = True
        for name in info.plain_calls:
            # Unresolvable bare names are imports from outside the tree
            # (stdlib, third-party): they cannot charge sim CPU cycles, so
            # they are treated as resolved-and-inert, not as unknowns.
            for target in self.resolve_plain_call(info, name):
                info.edges.add(target.qualname)

    @staticmethod
    def _is_stdlib_method(method: str) -> bool:
        """Container/stdlib method names that never alias repo callables."""
        return method in {
            "get",
            "items",
            "keys",
            "values",
            "join",
            "split",
            "strip",
            "format",
            "startswith",
            "endswith",
            "copy",
            "index",
            "count",
            "reverse",
            "most_common",
            "popitem",
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reachable(self, roots: Iterable[str]) -> List[FunctionInfo]:
        """Every function reachable from ``roots`` through resolved edges
        (the roots themselves included), in deterministic order."""
        seen: Set[str] = set()
        frontier = [q for q in roots if q in self.functions]
        while frontier:
            qualname = frontier.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            frontier.extend(self.functions[qualname].edges)
        return [self.functions[q] for q in sorted(seen)]

    def functions_in(self, *fragments: str) -> List[FunctionInfo]:
        """Functions whose module path contains any fragment (``"/mq/"``)."""
        return [
            info
            for info in self.functions.values()
            if info.ctx.module_in(*fragments)
        ]


def build_index(paths_to_contexts: Sequence[ModuleContext]) -> ProgramIndex:
    return ProgramIndex(paths_to_contexts)
