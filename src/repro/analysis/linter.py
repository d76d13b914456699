"""Lint driver: load Python sources, run every pass, apply suppressions.

Usage from the CLI::

    repro lint                 # lint the installed repro package
    repro lint src/repro/fs    # lint a subtree
    repro lint --format=json   # machine-readable output

Module dotted names are derived from the last path component named
``repro`` (``.../src/repro/fs/vfs.py`` → ``repro.fs.vfs``), which is how
the passes decide layer membership and exemptions.  Files with no
``repro`` ancestor get a name from their bare stem and are still linted
by the path-independent rules.

Every run builds one :class:`repro.analysis.project.ProjectIndex` over
the loaded modules; the per-module passes (DET/LAY/PERF) walk each tree
independently while the whole-program passes (CS001, CONC001)
share the index's call graph and import closure.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.concurrency import check_global_state
from repro.analysis.crashsites import check_crash_sites
from repro.analysis.determinism import (
    check_ambient_random,
    check_set_iteration,
    check_wall_clock,
)
from repro.analysis.findings import RULES, Finding
from repro.analysis.layering import check_layering
from repro.analysis.perfpass import (
    check_function_imports,
    check_per_page_loops,
)
from repro.analysis.project import ProjectIndex, build_index
from repro.analysis.suppress import is_suppressed, suppression_map

#: Directory markers that identify the repository root; finding paths
#: are emitted relative to it so the output is the same no matter where
#: the linter was invoked from.
_ROOT_MARKERS = (".git", "pyproject.toml", "setup.cfg")


@dataclass
class ModuleInfo:
    path: Path
    display: str                 # path as shown in findings
    name: str                    # dotted module name
    tree: ast.Module
    suppress: Dict[int, Set[str]]


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    n_files: int = 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def module_name_for(path: Path) -> str:
    parts = list(path.parts)
    name_parts: List[str]
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        name_parts = list(parts[idx:])
    else:
        name_parts = [parts[-1]]
    if name_parts[-1].endswith(".py"):
        name_parts[-1] = name_parts[-1][: -len(".py")]
    if name_parts[-1] == "__init__":
        name_parts.pop()
    return ".".join(name_parts) or "repro"


def iter_py_files(paths: Sequence[Path]) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        if p.is_dir():
            out.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            out.append(p)
    seen: Set[Path] = set()
    uniq = []
    for p in out:
        rp = p.resolve()
        if rp not in seen:
            seen.add(rp)
            uniq.append(p)
    return uniq


def _repo_root_for(path: Path) -> Optional[Path]:
    for anc in path.resolve().parents:
        if any((anc / marker).exists() for marker in _ROOT_MARKERS):
            return anc
    return None


def _display(path: Path) -> str:
    """Repo-relative posix path when a repository root is found above
    the file; cwd-relative otherwise (loose files, tmp fixtures)."""
    root = _repo_root_for(path)
    if root is not None:
        return path.resolve().relative_to(root).as_posix()
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def load_modules(
    paths: Sequence[Path], honor_suppressions: bool = True,
) -> Tuple[List[ModuleInfo], List[str]]:
    modules: List[ModuleInfo] = []
    errors: List[str] = []
    for path in iter_py_files(paths):
        display = _display(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{display}: {exc}")
            continue
        modules.append(ModuleInfo(
            path=path,
            display=display,
            name=module_name_for(path),
            tree=tree,
            suppress=(
                suppression_map(source.splitlines())
                if honor_suppressions else {}
            ),
        ))
    return modules, errors


#: Per-module passes; the whole-program passes run on the shared index.
_MODULE_PASSES = (
    ("DET001", check_wall_clock),
    ("DET002", check_ambient_random),
    ("DET003", check_set_iteration),
    ("LAY001", check_layering),
    ("PERF001", check_per_page_loops),
    ("PERF002", check_function_imports),
)

#: Whole-program passes taking the ProjectIndex.
_PROJECT_PASSES = (
    ("CS001", check_crash_sites),
    ("CONC001", check_global_state),
)


def lint_paths(
    paths: Sequence[Path], rules: Sequence[str] = (),
    honor_suppressions: bool = True,
) -> LintResult:
    """Run the requested rule set (all rules when empty) over ``paths``."""
    wanted = set(rules) if rules else set(RULES)
    unknown = wanted - set(RULES)
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")

    modules, errors = load_modules(paths, honor_suppressions)
    result = LintResult(errors=errors, n_files=len(modules))
    index: ProjectIndex = build_index(modules)

    supp_by_display = {m.display: m.suppress for m in modules}
    raw: List[Finding] = []
    for mod in modules:
        for rule, check in _MODULE_PASSES:
            if rule in wanted:
                raw.extend(check(mod))
    for rule, check in _PROJECT_PASSES:
        if rule in wanted:
            raw.extend(check(index))

    for f in raw:
        supp = supp_by_display.get(f.path, {})
        if not is_suppressed(supp, f.line, f.rule):
            result.findings.append(f)
    result.findings.sort(
        key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    )
    return result


def render_text(result: LintResult) -> str:
    lines = [f.format() for f in result.findings]
    lines.extend(f"error: {e}" for e in result.errors)
    n = len(result.findings)
    summary = (
        f"{n} finding{'s' if n != 1 else ''} in {result.n_files} files"
    )
    if result.errors:
        summary += f" ({len(result.errors)} files failed to parse)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps({
        "findings": [f.to_dict() for f in result.findings],
        "errors": result.errors,
        "n_files": result.n_files,
        "exit_code": result.exit_code,
    }, indent=2)
