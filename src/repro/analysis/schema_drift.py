"""SCH001: result schemas must not drift from their validators.

Every result document in the repo is a byte-deterministic JSON emitted
by a ``to_*()`` builder and gated by a sibling ``validate_*()`` function
(``repro.cluster.run/v2``, the run report, the trace exporters).
Nothing forces the two to agree: a key added to the builder but not to
the validator ships silently unchecked, and a key the validator
requires but nothing emits means the validator was written against a
schema that no longer exists.

The pass statically diffs the two key sets per registered module:

* **emitted keys** — constant string keys of dict literals and constant
  string subscript stores inside every ``to_*()`` function/method;
* **accepted keys** — every string constant in the validator closure:
  the ``validate_*()`` functions, the same-module helpers they call
  (via the shared call graph), and the module-level constants they
  reference (``*_FIELDS`` tuples and friends).

Direction 1 flags emitted-but-never-checked keys at the emit site.
Direction 2 flags keys required by a ``*_FIELDS``/``*_REQUIRED``
constant that no emitter in the module produces — but only when the
constant overlaps the module's emitted keys at all, so validators for
documents built in *other* modules (e.g. recovery records assembled by
the serve loop and only validated here) are not misattributed.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, ProjectIndex

#: Modules whose emitter/validator pairs are under the drift contract.
SCHEMA_MODULES = (
    "repro.cluster.result",
    "repro.bench.harness",
    "repro.trace.export",
)

_EMITTER_RE = re.compile(r"^to_")
_VALIDATOR_RE = re.compile(r"^validate_")
_REQUIRED_CONST_RE = re.compile(r"(_FIELDS|_REQUIRED)$")

RULE = "SCH001"


def _emitted_keys(fn: FunctionInfo) -> List[Tuple[str, int, int]]:
    """(key, line, col) for constant string keys built by ``fn``."""
    out: List[Tuple[str, int, int]] = []
    seen: Set[str] = set()

    def record(key: ast.AST) -> None:
        if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                and key.value not in seen:
            seen.add(key.value)
            out.append((key.value, key.lineno, key.col_offset))

    for node in ast.walk(fn.node):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    record(key)
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Subscript):
                    record(tgt.slice)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Subscript):
            record(node.target.slice)
    return out


def _string_constants(node: ast.AST) -> Set[str]:
    return {
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _validator_closure(
    index: ProjectIndex, module_name: str, validators: List[FunctionInfo],
) -> Tuple[Set[str], Set[str]]:
    """(accepted string constants, referenced global names) over the
    validators plus the same-module helpers they transitively call."""
    by_name = {
        f.name: f
        for f in index.functions_by_module[module_name]
        if f.name != "<module>"
    }
    todo = list(validators)
    visited: Set[str] = set()
    accepted: Set[str] = set()
    referenced: Set[str] = set()
    module_globals = index.globals.get(module_name, {})
    while todo:
        fn = todo.pop()
        if fn.qualname in visited:
            continue
        visited.add(fn.qualname)
        accepted |= _string_constants(fn.node)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Name) and node.id in module_globals:
                referenced.add(node.id)
                accepted |= _string_constants(
                    module_globals[node.id].value
                )
        for call in fn.calls:
            helper = by_name.get(call.name)
            if helper is not None and helper.qualname not in visited:
                todo.append(helper)
    return accepted, referenced


def _required_keys(value: ast.AST) -> Set[str]:
    """String keys/elements of a ``*_FIELDS`` constant's value."""
    if isinstance(value, ast.Dict):
        return {
            k.value for k in value.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        }
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        return {
            e.value for e in value.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str)
        }
    return set()


def check_schema_drift(index: ProjectIndex) -> List[Finding]:
    out: List[Finding] = []
    for module_name in SCHEMA_MODULES:
        if module_name not in index.functions_by_module:
            continue
        funcs = index.functions_by_module[module_name]
        emitters = [f for f in funcs if _EMITTER_RE.match(f.name)]
        validators = [f for f in funcs if _VALIDATOR_RE.match(f.name)]
        if not emitters or not validators:
            continue  # no contract to check in this module
        mod = index.by_name[module_name]
        accepted, referenced = _validator_closure(
            index, module_name, validators
        )
        vnames = ", ".join(sorted(f.name for f in validators))

        emitted_all: Set[str] = set()
        for fn in emitters:
            for key, line, col in _emitted_keys(fn):
                emitted_all.add(key)
                if key not in accepted:
                    out.append(Finding(
                        RULE, mod.display, line, col,
                        f"result key '{key}' emitted by {fn.qualname}() "
                        f"is never checked by {vnames}; schema drift — "
                        "validate the key or drop it",
                    ))

        module_globals = index.globals.get(module_name, {})
        for gname in sorted(referenced):
            if _REQUIRED_CONST_RE.search(gname) is None:
                continue
            required = _required_keys(module_globals[gname].value)
            if not required or not (required & emitted_all):
                # Zero overlap: the document this constant validates is
                # built in another module; not this module's drift.
                continue
            for key in sorted(required - emitted_all):
                b = module_globals[gname]
                out.append(Finding(
                    RULE, mod.display, b.line, b.col,
                    f"validator constant {gname} requires key '{key}' "
                    f"that no to_*() builder in {module_name} emits; "
                    "schema drift — emit the key or retire it from the "
                    "validator",
                ))
    return out
