"""Whole-program index shared by the project-level lint passes.

Every lint run builds one :class:`ProjectIndex` over the loaded modules
and hands it to each whole-program pass (CS001/CS002 crash-site
reachability, CONC001/002/003 concurrency readiness).  The index
holds, per module:

* a function context per ``def`` (module top level is also a context)
  with the bare-name call sites made from its body,
* receiver-type hints: a call ``x.m()`` where ``x`` was assigned
  ``x = ClassName(...)`` in the same scope records ``ClassName`` so the
  call graph can target that class's method instead of every same-named
  method (``self.m()`` stays name-keyed on purpose — restricting it by
  class would break cross-module inheritance),
* class records (methods, class-level mutable-container attributes),
* module-level bindings (name → value expression, with a
  mutable-container flag),
* the repro-internal import graph, so passes can compute "reachable
  from the serve path" as an import closure.

The index is deliberately syntactic: no imports are executed, so it is
safe to run over broken or hostile trees, and everything is keyed by
source order so findings derived from it are deterministic.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.suppress import is_def_suppressed

#: Constructor names whose result is a mutable container.
MUTABLE_CONTAINER_CALLS = {
    "dict", "list", "set", "bytearray",
    "defaultdict", "deque", "OrderedDict", "Counter", "ChainMap",
}


def is_mutable_container_expr(node: ast.AST) -> bool:
    """True for literals / constructor calls that build a mutable
    container (the aliasing hazard CONC001/CONC002 look for)."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in MUTABLE_CONTAINER_CALLS
    return False


def is_faults_call(node: ast.Call) -> bool:
    """Match ``<anything>.faults.site(...)`` / ``.point(...)`` and bare
    ``faults.site(...)`` — the crash-site registration idiom."""
    func = node.func
    if not isinstance(func, ast.Attribute) \
            or func.attr not in ("site", "point"):
        return False
    recv = func.value
    if isinstance(recv, ast.Attribute):
        return recv.attr == "faults"
    if isinstance(recv, ast.Name):
        return recv.id == "faults"
    return False


def call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class CallSite:
    """One call expression inside a function context."""

    __slots__ = ("name", "line", "col", "is_method", "recv_class")

    def __init__(self, name: str, line: int, col: int, is_method: bool,
                 recv_class: Optional[str] = None) -> None:
        self.name = name
        self.line = line
        self.col = col
        self.is_method = is_method
        #: Receiver class when the receiver was locally constructed
        #: (``x = ClassName(...); x.m()``); None keeps the edge
        #: name-keyed (conservative).
        self.recv_class = recv_class


class FunctionInfo:
    """One function definition (module top level is also a context)."""

    def __init__(self, name: str, qualname: str, module, node,
                 class_name: Optional[str] = None) -> None:
        self.name = name
        self.qualname = qualname
        self.module = module
        self.node = node
        self.class_name = class_name  # innermost enclosing class, if any
        self.guarded0 = False         # body registers a crash site
        self.calls: List[CallSite] = []
        self.children: Dict[str, "FunctionInfo"] = {}
        # local ctor bindings seen so far: var name -> class-ish callee
        self._ctors: Dict[str, str] = {}

    def is_exempt(self, rule: str) -> bool:
        """allow[rule] anywhere on the decorator lines or (possibly
        multi-line) ``def`` signature exempts the whole function."""
        if not isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        return is_def_suppressed(self.module.suppress, self.node, rule)


class ClassInfo:
    """One class definition: methods plus class-level container attrs."""

    def __init__(self, name: str, qualname: str, module, node) -> None:
        self.name = name
        self.qualname = qualname
        self.module = module
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}
        #: (attr name, line, col) of class-level mutable containers.
        self.mutable_attrs: List[Tuple[str, int, int]] = []


class GlobalBinding:
    """One module-level name binding."""

    __slots__ = ("name", "module", "line", "col", "mutable")

    def __init__(self, name: str, module, value: ast.AST,
                 line: int, col: int) -> None:
        self.name = name
        self.module = module
        self.line = line
        self.col = col
        self.mutable = is_mutable_container_expr(value)


class ProjectIndex:
    """Symbol table + call graph + import graph over one lint run."""

    def __init__(self, modules: Sequence) -> None:
        self.modules = list(modules)
        self.by_name: Dict[str, object] = {m.name: m for m in self.modules}
        self.functions: List[FunctionInfo] = []
        self.functions_by_module: Dict[str, List[FunctionInfo]] = {}
        self.classes: List[ClassInfo] = []
        #: class name -> method names defined under that name anywhere.
        self.methods_of: Dict[str, Set[str]] = {}
        #: module name -> top-level name -> binding.
        self.globals: Dict[str, Dict[str, GlobalBinding]] = {}
        #: module name -> imported dotted module names (as written).
        self.imports: Dict[str, Set[str]] = {}
        for mod in self.modules:
            self._index_module(mod)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _index_module(self, module) -> None:
        funcs: List[FunctionInfo] = []
        self.functions_by_module[module.name] = funcs
        self.globals[module.name] = {}
        self.imports[module.name] = set()

        root = FunctionInfo(
            "<module>", f"{module.name}:<module>", module, module.tree
        )
        funcs.append(root)
        self.functions.append(root)
        self._collect_imports(module)
        self._collect_globals(module)
        self._walk(module.tree, root, "", None, module, funcs)
        self._resolve_late_site_callbacks(funcs)

    def _collect_imports(self, module) -> None:
        out = self.imports[module.name]
        is_pkg = module.path.stem == "__init__"
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    out.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = module.name.split(".")
                    drop = node.level - 1 if is_pkg else node.level
                    base_parts = parts[: len(parts) - drop] if drop else parts
                    base = ".".join(base_parts)
                else:
                    base = ""
                target = node.module or ""
                if base and target:
                    target = f"{base}.{target}"
                elif base:
                    target = base
                if not target:
                    continue
                out.add(target)
                for alias in node.names:
                    # ``from pkg import sub`` may name a submodule.
                    out.add(f"{target}.{alias.name}")

    def _collect_globals(self, module) -> None:
        table = self.globals[module.name]
        for stmt in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name) and tgt.id not in table:
                    table[tgt.id] = GlobalBinding(
                        tgt.id, module, value, stmt.lineno, stmt.col_offset
                    )

    def _walk(self, node: ast.AST, ctx: FunctionInfo, qual: str,
              cls: Optional[ClassInfo], module, funcs: List[FunctionInfo],
              ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sub = FunctionInfo(
                    child.name, f"{qual}{child.name}", module, child,
                    class_name=cls.name if cls is not None else None,
                )
                ctx.children[child.name] = sub
                funcs.append(sub)
                self.functions.append(sub)
                if cls is not None:
                    cls.methods[child.name] = sub
                    self.methods_of.setdefault(cls.name, set()).add(
                        child.name
                    )
                self._walk(child, sub, f"{qual}{child.name}.", None,
                           module, funcs)
            elif isinstance(child, ast.ClassDef):
                info = ClassInfo(
                    child.name, f"{qual}{child.name}", module, child
                )
                self.classes.append(info)
                self.methods_of.setdefault(child.name, set())
                self._collect_class_attrs(child, info)
                self._walk(child, ctx, f"{qual}{child.name}.", info,
                           module, funcs)
            else:
                self._scan(child, ctx)
                self._walk(child, ctx, qual, None, module, funcs)

    @staticmethod
    def _collect_class_attrs(node: ast.ClassDef, info: ClassInfo) -> None:
        for stmt in node.body:
            targets: List[ast.expr] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not is_mutable_container_expr(value):
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    info.mutable_attrs.append(
                        (tgt.id, stmt.lineno, stmt.col_offset)
                    )

    def _scan(self, node: ast.AST, ctx: FunctionInfo) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name):
            # Possible local construction: x = ClassName(...).  Whether
            # ClassName really is a class is decided at use time against
            # methods_of, so plain function calls never mis-target.
            ctx._ctors[node.targets[0].id] = node.value.func.id
        if not isinstance(node, ast.Call):
            return
        if is_faults_call(node):
            ctx.guarded0 = True
            if node.func.attr == "site":
                # The apply-callback passed to site() runs inside the
                # registration: mark the nested def it names as G0.
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in ctx.children:
                        ctx.children[arg.id].guarded0 = True
            return
        name = call_name(node.func)
        if name is None:
            return
        recv_class = None
        if isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name):
            recv_class = ctx._ctors.get(node.func.value.id)
        ctx.calls.append(CallSite(
            name, node.lineno, node.col_offset,
            isinstance(node.func, ast.Attribute), recv_class,
        ))

    @staticmethod
    def _resolve_late_site_callbacks(funcs: List[FunctionInfo]) -> None:
        # A site() call may name a nested def *after* the statement where
        # the def appears was walked; a second pass resolves those.
        for ctx in funcs:
            for node in ast.walk(ctx.node):
                if isinstance(node, ast.Call) and is_faults_call(node) \
                        and node.func.attr == "site":
                    for arg in node.args:
                        if isinstance(arg, ast.Name) \
                                and arg.id in ctx.children:
                            ctx.children[arg.id].guarded0 = True

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def has_method(self, cls: str, name: str) -> bool:
        return name in self.methods_of.get(cls, ())

    def reachable(self, prefixes: Iterable[str]) -> Set[str]:
        """Names of indexed modules in the import closure of every
        indexed module matching ``prefixes``.

        Importing ``a.b.c`` also executes ``a`` and ``a.b`` package
        ``__init__``s, so ancestor packages of each import target are
        part of the closure too.
        """
        prefixes = tuple(prefixes)

        def matches(name: str) -> bool:
            return any(
                name == p or name.startswith(p + ".") for p in prefixes
            )

        seeds = [m.name for m in self.modules if matches(m.name)]
        seen: Set[str] = set()
        frontier = list(seeds)
        while frontier:
            name = frontier.pop()
            if name in seen or name not in self.by_name:
                continue
            seen.add(name)
            for target in self.imports.get(name, ()):
                parts = target.split(".")
                for i in range(1, len(parts) + 1):
                    candidate = ".".join(parts[:i])
                    if candidate in self.by_name and candidate not in seen:
                        frontier.append(candidate)
        return seen


def build_index(modules: Sequence) -> ProjectIndex:
    """Build the shared whole-program index for one lint run."""
    return ProjectIndex(modules)
