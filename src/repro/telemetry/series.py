"""The ``repro.telemetry.series/v1`` document: JSONL export + validator.

A series file is newline-delimited JSON.  The first line is a header::

    {"schema": "repro.telemetry.series/v1", "sample_every_ns": ...,
     "t0_ns": ..., "t_end_ns": ..., "outages": [...], ...meta}

followed by one sample row per line, sorted by
``(t_ns, scope, device, tenant, layer)``::

    {"t_ns": ..., "scope": "device", "device": 0, "metrics": {...}}
    {"t_ns": ..., "scope": "tenant", "device": 0, "tenant": "a",
     "metrics": {...}}
    {"t_ns": ..., "scope": "layer", "layer": "ftl", "metrics": {...}}

Everything is a pure function of the run's (seed, config): identical
seeded invocations produce **byte-identical** series files — the CI
telemetry-smoke job ``cmp``\\ s two runs, and
``tests/test_telemetry.py`` pins a faulted scenario against a golden
fixture exactly like ``tests/golden/cluster_run.json``.

Its fields are declared once, in :data:`HEADER` and :data:`ROW`;
:func:`validate_series` checks them and the row order before ``repro
serve --telemetry-out`` writes a series.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Union

from repro.schema import (
    Map,
    Opt,
    OrNull,
    Table,
    Tagged,
    check,
    outage_window,
    parse_lines,
)
from repro.telemetry.sampler import TelemetrySampler, _row_key

SCHEMA = "repro.telemetry.series/v1"


def to_lines(sampler: TelemetrySampler) -> List[str]:
    """Serialize ``sampler`` as the series/v1 JSONL line list."""
    header: Dict = {
        "schema": SCHEMA,
        "sample_every_ns": sampler.sample_every_ns,
        "t0_ns": sampler.t0,
        "t_end_ns": sampler.t_end,
        "outages": sampler.outages,
    }
    for key in sorted(sampler.meta):
        header.setdefault(key, sampler.meta[key])
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(
        json.dumps(row, sort_keys=True) for row in sampler.sorted_rows()
    )
    return lines


def write_series(sampler: TelemetrySampler, path: str) -> int:
    """Write the series to ``path``; returns the number of sample rows."""
    lines = to_lines(sampler)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def load_series(path: str) -> List[Dict]:
    """Parse a series file into [header, row, row, ...]."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


HEADER = Table({
    "schema": (SCHEMA,), "sample_every_ns": float, "t0_ns": float,
    "t_end_ns": OrNull(float),
    "outages": [Table({"device": int, "t_down_ns": float, "t_up_ns": float},
                      rule=outage_window)],
    # the sampler's meta: ServeConfig.sampler_meta() on a serving run
    "fs": Opt(str), "scheduler": Opt(str), "n_devices": Opt(int),
    "queue_depth": Opt(int), "max_queue": Opt(int), "seed": Opt(int),
})


def _up_is_binary(row: Dict, where: str):
    if row["metrics"].get("up", 1) not in (0, 1):
        yield f"{where}: metrics['up'] must be 0 or 1"


ROW = Tagged("scope", {
    "device": Table({"t_ns": float, "scope": str, "device": int,
                     "metrics": Map(float)}, rule=_up_is_binary),
    "tenant": Table({"t_ns": float, "scope": str, "device": int,
                     "tenant": str, "metrics": Map(float)}),
    "layer": Table({"t_ns": float, "scope": str, "layer": str,
                    "metrics": Map(float)}),
})


def validate_series(
    doc: Union[Sequence[Dict], Sequence[str]],
) -> List[str]:
    """Return a list of schema problems (empty = valid).

    Accepts either parsed objects (header first) or raw JSONL lines.
    """
    if not isinstance(doc, (list, tuple)):
        return ["series is not a list of lines"]
    records, problems = parse_lines(doc)
    if not records:
        return problems + ["document is empty (no header line)"]
    for i, (n, rec) in enumerate(records):
        problems += check(rec, ROW if i else HEADER, f"line[{n}]")
    if problems:
        return problems
    # rows in (time, scope, device, tenant, layer) order, one per entity
    for (_, prev), (n, row) in zip(records[1:], records[2:]):
        if _row_key(row) < _row_key(prev):
            problems.append(f"line[{n}] out of order")
        elif _row_key(row) == _row_key(prev):
            problems.append(f"line[{n}] duplicates the previous entity")
    return problems
