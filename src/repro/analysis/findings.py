"""Lint finding records and the rule registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Rule id -> one-line description (see docs/ANALYSIS.md for the long form).
RULES: Dict[str, str] = {
    "CS001": (
        "device-visible mutation not routed through a registered "
        "fault-injector crash site"
    ),
    "CS002": (
        "minimal unguarded call path from an entry function down to a "
        "device mutation primitive"
    ),
    "CONC001": (
        "module-level mutable state mutated on a path reachable from "
        "the serve path; diverges across shard worker processes"
    ),
    "CONC002": (
        "object state aliasing across shard boundaries (class-level "
        "mutable container attribute or mutable default argument)"
    ),
    "CONC003": (
        "result-merge order depends on dict/set iteration over a "
        "per-shard partition"
    ),
    "DET001": "wall-clock access outside repro.sim.clock",
    "DET002": "ambient randomness outside repro.sim.rng",
    "DET003": "iteration over an unordered set",
    "LAY001": (
        "host-layer module imports NAND/FTL/firmware internals instead of "
        "going through repro.ssd.device"
    ),
    "PERF001": (
        "per-page device-visible mutation inside a loop instead of a "
        "batched op (write_pages / trim_many / ranged trim)"
    ),
    "PERF002": (
        "import statement inside a function body of a stack-layer "
        "module (executed on every call)"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One lint finding, pinned to a file:line."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
