"""CONC001: module state on the serve path must not diverge between
shard workers (ROADMAP "One serving path").

The shard routine runs in-process for ``workers=0`` and in one worker
process per shard group otherwise, and the documents must be the same
bytes.  This pass runs on the :class:`repro.analysis.project.ProjectIndex`
import closure of the serve path (``repro.cluster`` and everything it
transitively imports) and flags module-level mutable containers that the
code actually mutates.  Each worker process gets its own copy of module
globals, so accumulated state diverges between shards and the merged
result stops replaying.  Pure memo caches (value a function of the key
alone) are safe to diverge and may carry a justified
``allow[CONC001]``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.determinism import _ImportTable
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectIndex

#: Roots of the serve path: CONC001 covers everything these import.
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
        if isinstance(node, ast.Name) and self._is_global(node.id):
            self.mutations.setdefault(node.id, node.lineno)

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
    reach = index.reachable(SERVE_ROOTS)
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
