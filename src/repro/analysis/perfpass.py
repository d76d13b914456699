"""Performance lint passes: per-page device ops inside loops (PERF001)
and imports inside function bodies of the stack layers (PERF002).

The simulator's hot path is dominated by call volume, not arithmetic:
a filesystem that TRIMs a thousand blocks one ``device.trim(b)`` at a
time pays a thousand crossings of the host/device boundary (stats,
fault-site checks, firmware dispatch) where one ranged call pays a
handful.  The batched entry points exist for exactly this reason:

* ``MSSD.write_pages(pages, kind)`` — which carries one run through
  ``Firmware.block_write_many`` and ``FTL.write_pages`` — instead of
  single-page ``write_blocks`` / ``block_write`` / ``write_page`` in a
  loop, and ``ExtFS._writeback_pages(batch, ...)`` instead of a
  page-at-a-time ``_writeback_page``,
* ``trim_many`` / ranged ``device.trim(lba, n_blocks)`` instead of
  per-block ``trim(b)`` in a loop.

**PERF001** flags a call to a per-page mutation primitive —
``write_blocks``, ``_writeback_page``, ``block_write``, ``write_page``,
``program_page``, ``byte_write``, ``erase_block``, or single-argument
``trim`` — lexically inside a ``for``/``while`` loop or a
comprehension.  Ranged ``trim(lba, n)`` calls are not flagged, so
run-batching loops (which emit one ranged call per contiguous run) pass
clean.

Some per-page loops are inherent — GC migration rebinds each page to a
different physical address, and the batched implementations themselves
bottom out in per-page loops.  Annotate those with
``# repro: allow[PERF001]`` on the call line (or the line above).

**PERF002** flags an ``import`` / ``from … import`` statement inside a
function body of a stack-layer module (:data:`STACK_PREFIXES`: every
module a simulated operation passes through).  The statement runs on
every call — a ``sys.modules`` probe, an attribute fetch and a local
bind per name — and ``BaseFileSystem.open`` paid it 50 000 times per
serve run before this rule existed.  Import at module level; an import
that must stay local (a genuine cycle, an optional dependency) takes
``# repro: allow[PERF002]``.  ``if TYPE_CHECKING:`` blocks never run
and are not flagged.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding

#: Per-page mutation primitives that have (or feed) a batched sibling.
PER_PAGE_MUTATIONS = {
    "write_blocks",
    "_writeback_page",
    "block_write",
    "write_page",
    "program_page",
    "byte_write",
    "erase_block",
}

_MESSAGE = (
    "per-page {name}() inside a loop; use a batched device op "
    "(write_pages / _writeback_pages / trim_many / ranged trim(lba, n)) "
    "or annotate with `# repro: allow[PERF001]` if per-page work is "
    "inherent"
)


class _LoopCallVisitor(ast.NodeVisitor):
    """Collect per-page mutation calls that sit inside any loop."""

    def __init__(self, module, out: List[Finding]) -> None:
        self.module = module
        self.out = out
        self._depth = 0

    def _loop(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_For = _loop
    visit_AsyncFor = _loop
    visit_While = _loop
    visit_ListComp = _loop
    visit_SetComp = _loop
    visit_DictComp = _loop
    visit_GeneratorExp = _loop

    def visit_Call(self, node: ast.Call) -> None:
        if self._depth and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in PER_PAGE_MUTATIONS or (
                attr == "trim"
                and len(node.args) == 1
                and not node.keywords
            ):
                self.out.append(Finding(
                    "PERF001",
                    self.module.display,
                    node.lineno,
                    node.col_offset,
                    _MESSAGE.format(name=attr),
                ))
        self.generic_visit(node)


#: Modules on the path of a simulated operation.
STACK_PREFIXES = (
    "repro.fs",
    "repro.host",
    "repro.ssd",
    "repro.ftl",
    "repro.nand",
    "repro.interconnect",
    "repro.sim",
    "repro.devcache",
    "repro.cluster.kernel",
    "repro.cluster.tenant",
    "repro.cluster.sched",
)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def check_function_imports(module) -> List[Finding]:
    """PERF002: import statement inside a stack-layer function body."""
    out: List[Finding] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    out.append(Finding(
                        "PERF002", module.display, child.lineno,
                        child.col_offset,
                        "import statement inside a function body of a "
                        "stack-layer module runs on every call; import at "
                        "module level or annotate with `# repro: "
                        "allow[PERF002]` if it must stay local",
                    ))
            elif not (
                isinstance(child, ast.If)
                and "TYPE_CHECKING" in ast.unparse(child.test)
            ):
                visit(child, in_function or isinstance(child, _FUNCTIONS))

    if any(
        module.name == p or module.name.startswith(p + ".")
        for p in STACK_PREFIXES
    ):
        visit(module.tree, False)
    return out


def check_per_page_loops(module) -> List[Finding]:
    """PERF001: per-page device mutation inside a loop."""
    out: List[Finding] = []
    _LoopCallVisitor(module, out).visit(module.tree)
    return out
