"""Suppression comments: ``# repro: allow[RULE]``.

A finding is suppressed when its line carries an allow comment naming
its rule id, or when the line immediately above is a standalone allow
comment::

    victims = set(candidates)
    for b in victims:  # repro: allow[DET003]
        ...

    # repro: allow[DET003]
    for b in victims:
        ...

Several rules may be listed, comma-separated: ``allow[DET001,DET002]``.
For the function-scoped rule (CS001), an allow comment anywhere
on the ``def`` — a decorator line, any line of a multi-line signature,
or the line just above — exempts the whole function (used for recovery
paths, which run with the injector disarmed).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Set

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


def suppression_map(source_lines: List[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids allowed on that line."""
    out: Dict[int, Set[str]] = {}
    for i, text in enumerate(source_lines, start=1):
        m = _ALLOW_RE.search(text)
        if m is None:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        out.setdefault(i, set()).update(rules)
        if text.lstrip().startswith("#"):
            # Standalone comment: also covers the next line.
            out.setdefault(i + 1, set()).update(rules)
    return out


def is_suppressed(supp: Dict[int, Set[str]], line: int, rule: str) -> bool:
    return rule in supp.get(line, ())


def def_line_span(node: ast.AST) -> range:
    """1-based line numbers making up a ``def``'s header: decorators
    plus the (possibly multi-line) signature, ending just before the
    first body statement.  One-liner defs span only the ``def`` line."""
    first = node.lineno
    for dec in getattr(node, "decorator_list", []):
        first = min(first, dec.lineno)
    body = getattr(node, "body", None)
    body_start = body[0].lineno if body else node.lineno
    last = node.lineno if body_start <= node.lineno else body_start - 1
    return range(first, last + 1)


def is_def_suppressed(
    supp: Dict[int, Set[str]], node: ast.AST, rule: str,
) -> bool:
    """True when ``allow[rule]`` appears anywhere on the def header.

    Historically only the exact ``def`` line worked, which silently
    dropped the exemption when a decorator or a wrapped signature pushed
    the comment off that line.
    """
    return any(rule in supp.get(i, ()) for i in def_line_span(node))
