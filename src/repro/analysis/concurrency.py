"""CONC001/002/003: concurrency-readiness checks for sharded serving
(ROADMAP "One serving path").

Running the shard routine in several worker processes breaks
byte-identical replay whenever state silently spans the shard boundary.
These passes run on the :class:`repro.analysis.project.ProjectIndex`
import closure of the serve path (``repro.cluster`` and everything it
transitively imports) and flag the three classic hazards in whatever
the shard routine comes to reach:

* **CONC001** — module-level mutable containers that the code actually
  mutates.  Each worker process gets its own copy of module globals, so
  accumulated state diverges between shards and the merged result stops
  replaying.  Pure memo caches (value a function of the key alone) are
  safe to diverge and may carry a justified ``allow[CONC001]``.
* **CONC002** — objects that alias across shard boundaries by
  construction: class-level mutable container attributes (shared by
  every instance, including devices on different shards) and mutable
  default arguments (one container shared by every call).
* **CONC003** — result-merge code whose output order depends on
  dict/set iteration over per-shard partitions (``by_*``, ``per_*``,
  ``shards``, ``partitions``): iteration order is insertion/hash order,
  which differs once partitions are filled by racing workers.  Iterate
  ``sorted(...)`` so the merged document is order-stable.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.determinism import _ImportTable
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectIndex, is_mutable_container_expr

#: Roots of the serve path: CONC checks cover everything these import.
SERVE_ROOTS = ("repro.cluster", "repro.telemetry")

#: Methods that mutate the receiver container in place.
MUTATING_METHODS = {
    "append", "appendleft", "add", "update", "setdefault",
    "pop", "popitem", "popleft", "clear", "extend", "insert",
    "remove", "discard", "__setitem__",
}

#: (module, global name) -> justification.  Module-level state that is
#: deliberately per-process: diverging copies across shard workers are
#: harmless because the state never feeds a merged, replayable result.
CONC001_EXEMPT: Dict[Tuple[str, str], str] = {
    # Sanitizer trip tallies are per-process diagnostics read only by
    # fssan.sanitized() in the same process; results never merge them.
    ("repro.analysis.fssan", "COUNTS"): "per-process sanitizer tallies",
}

#: Partition-shaped names: per-shard/per-tenant groupings whose merge
#: order must not leak hash/insertion order.
_PARTITION_RE = re.compile(
    r"(^|_)(by|per)_|(^|_)(shards?|partitions?|parts)$"
)


def _serve_reachable(index: ProjectIndex) -> Set[str]:
    return index.reachable(SERVE_ROOTS)


def _final_name(node: ast.AST) -> Optional[str]:
    """Trailing identifier of a Name/Attribute chain (``a.b.c`` -> c)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# ---------------------------------------------------------------------- #
# CONC001: mutated module-level state reachable from the serve path
# ---------------------------------------------------------------------- #


class _MutationScan(ast.NodeVisitor):
    """Find mutations of module globals within one module.

    Tracks per-scope local bindings so a local that shadows a global
    name is not miscounted.  Records the first mutation line per name.
    """

    def __init__(self, global_names: Set[str]) -> None:
        self.global_names = global_names
        self.mutations: Dict[str, int] = {}
        self._locals: List[Set[str]] = [set()]

    def _is_global(self, name: str) -> bool:
        return name in self.global_names and not any(
            name in scope for scope in self._locals[1:]
        )

    def _record(self, node: ast.AST) -> None:
        name = _final_name(node)
        if name is not None and isinstance(node, ast.Name) \
                and self._is_global(name):
            self.mutations.setdefault(name, node.lineno)

    def visit_FunctionDef(self, node) -> None:
        local: Set[str] = {a.arg for a in node.args.args}
        local.update(a.arg for a in node.args.kwonlyargs)
        local.update(a.arg for a in node.args.posonlyargs)
        if node.args.vararg:
            local.add(node.args.vararg.arg)
        if node.args.kwarg:
            local.add(node.args.kwarg.arg)
        declared_global: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and sub is not node:
                continue
            if isinstance(sub, ast.Global):
                declared_global.update(sub.names)
            elif isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    if isinstance(tgt, ast.Name):
                        local.add(tgt.id)
            elif isinstance(sub, ast.AnnAssign) \
                    and isinstance(sub.target, ast.Name):
                local.add(sub.target.id)
        self._locals.append(local - declared_global)
        self.generic_visit(node)
        self._locals.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            if isinstance(tgt, ast.Subscript):
                self._record(tgt.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript):
            self._record(node.target.value)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for tgt in node.targets:
            if isinstance(tgt, ast.Subscript):
                self._record(tgt.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in MUTATING_METHODS:
            self._record(func.value)
        self.generic_visit(node)


def check_global_state(index: ProjectIndex) -> List[Finding]:
    """CONC001 over the serve-path import closure."""
    reach = _serve_reachable(index)
    out: List[Finding] = []

    # Cross-module mutations (``mod.NAME.update(...)`` through an
    # import alias) are collected from every indexed module.
    cross: Dict[Tuple[str, str], int] = {}
    for mod in index.modules:
        table = _ImportTable(mod.tree)
        for node in ast.walk(mod.tree):
            target: Optional[ast.AST] = None
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATING_METHODS:
                target = node.func.value
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                tgts = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for tgt in tgts:
                    if isinstance(tgt, ast.Subscript):
                        target = tgt.value
            if not isinstance(target, ast.Attribute):
                continue
            resolved = table.resolve(target)
            if resolved is None or "." not in resolved:
                continue
            owner, name = resolved.rsplit(".", 1)
            if owner in index.globals and name in index.globals[owner]:
                cross.setdefault((owner, name), node.lineno)

    for mod in index.modules:
        if mod.name not in reach:
            continue
        bindings = index.globals.get(mod.name, {})
        mutable = {n for n, b in bindings.items() if b.mutable}
        if not mutable:
            continue
        scan = _MutationScan(mutable)
        scan.visit(mod.tree)
        for name in sorted(mutable):
            line = scan.mutations.get(name)
            if line is None and (mod.name, name) in cross:
                line = cross[(mod.name, name)]
            if line is None:
                continue  # never mutated: a constant registry, fine
            if (mod.name, name) in CONC001_EXEMPT:
                continue
            b = bindings[name]
            out.append(Finding(
                "CONC001", mod.display, b.line, b.col,
                f"module-level mutable container '{name}' is mutated "
                f"(line {line}) and reachable from the serve path; "
                "per-process copies diverge under sharded serving — "
                "pass the state explicitly, or keep it with a justified "
                "`# repro: allow[CONC001]` if divergence is harmless "
                "(e.g. a pure memo cache)",
            ))
    return out


# ---------------------------------------------------------------------- #
# CONC002: objects aliasing across shard boundaries
# ---------------------------------------------------------------------- #


def check_shard_aliasing(index: ProjectIndex) -> List[Finding]:
    """CONC002 over the serve-path import closure."""
    reach = _serve_reachable(index)
    out: List[Finding] = []
    for cls in index.classes:
        if cls.module.name not in reach:
            continue
        for attr, line, col in cls.mutable_attrs:
            out.append(Finding(
                "CONC002", cls.module.display, line, col,
                f"class attribute '{attr}' on {cls.qualname} is a "
                "mutable container shared by every instance — including "
                "devices on different shards; initialize it per instance "
                "in __init__",
            ))
    for fn in index.functions:
        if fn.module.name not in reach:
            continue
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for d in defaults:
            if is_mutable_container_expr(d):
                out.append(Finding(
                    "CONC002", fn.module.display, d.lineno, d.col_offset,
                    f"mutable default argument on {fn.qualname}() aliases "
                    "one container across every call (and every shard); "
                    "default to None and build it inside the function",
                ))
    return out


# ---------------------------------------------------------------------- #
# CONC003: merge order from dict/set iteration over partitions
# ---------------------------------------------------------------------- #


class _MergeOrderScan(ast.NodeVisitor):
    """Per-scope walker flagging unordered iteration over partition-
    shaped names (new instance per function scope, like DET003)."""

    #: Order-insensitive consumers: a comprehension fed straight into
    #: one of these cannot leak iteration order into the result.
    _REDUCERS = {
        "sum", "min", "max", "any", "all", "len", "sorted",
        "set", "frozenset", "Counter",
    }

    def __init__(self, module, findings: List[Finding],
                 dictish: Set[str]) -> None:
        self.module = module
        self.findings = findings
        self.dictish = set(dictish)  # names with dict/set evidence
        self._safe: Set[int] = set()  # ids of reducer-fed comprehensions

    def _collect_scope(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Assign) \
                        and _is_dictish_expr(node.value):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            self.dictish.add(tgt.id)
                elif isinstance(node, ast.AnnAssign) \
                        and node.value is not None \
                        and _is_dictish_expr(node.value):
                    if isinstance(node.target, ast.Name):
                        self.dictish.add(node.target.id)

    def run(self, body: List[ast.stmt]) -> None:
        self._collect_scope(body)
        for stmt in body:
            self.visit(stmt)

    def _flag_iter(self, it: ast.AST) -> None:
        name: Optional[str] = None
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute) \
                and it.func.attr in ("items", "keys", "values"):
            name = _final_name(it.func.value)
            evidence = name is not None  # .items() is dict evidence
        elif isinstance(it, ast.Name):
            name = it.id
            evidence = name in self.dictish
        else:
            return
        if name is None or not evidence:
            return
        if _PARTITION_RE.search(name) is None:
            return
        self.findings.append(Finding(
            "CONC003", self.module.display, it.lineno, it.col_offset,
            f"merge order depends on dict/set iteration over partition "
            f"'{name}'; per-shard fill order differs between workers — "
            "iterate sorted(...) so the merged result is order-stable",
        ))

    def visit_For(self, node: ast.For) -> None:
        self._flag_iter(node.iter)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) \
                and node.func.id in self._REDUCERS:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                    ast.SetComp)):
                    self._safe.add(id(arg))
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        if id(node) not in self._safe:
            for gen in node.generators:
                self._flag_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_FunctionDef(self, node) -> None:
        _MergeOrderScan(self.module, self.findings, self.dictish).run(
            node.body
        )

    visit_AsyncFunctionDef = visit_FunctionDef


def _is_dictish_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in (
            "dict", "set", "frozenset", "defaultdict", "Counter",
            "OrderedDict",
        )
    return False


def check_merge_order(index: ProjectIndex) -> List[Finding]:
    """CONC003 over the serve-path import closure."""
    reach = _serve_reachable(index)
    out: List[Finding] = []
    for mod in index.modules:
        if mod.name not in reach:
            continue
        _MergeOrderScan(mod, out, set()).run(mod.tree.body)
    return out
