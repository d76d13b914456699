"""Prometheus text exposition (version 0.0.4) for telemetry snapshots.

:func:`render_prometheus` renders the **latest sample per entity** from
a :class:`~repro.telemetry.sampler.TelemetrySampler` (or a pre-sorted
row list) as the plain-text format Prometheus scrapes: cumulative
request/traffic counts become ``counter`` metrics with the conventional
``_total`` suffix, everything else is a ``gauge``.  Metric and label
names are emitted in sorted order, so the exposition — like the series —
is byte-deterministic for identical runs.

:func:`parse_exposition` is a small well-formedness checker
(``tests/test_telemetry.py`` runs it over a faulted serve): HELP/TYPE
comment syntax, sample-line grammar, TYPE-before-sample ordering, and
duplicate series detection.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.sampler import TelemetrySampler, _entity_key, _row_key

#: Content-Type for HTTP exposition (the /metrics endpoint sends this).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every metric name is prefixed with this namespace.
PREFIX = "repro"

#: Cumulative sample metrics: exposed as Prometheus counters (name gains
#: the conventional ``_total`` suffix).
COUNTER_METRICS = frozenset({
    "submitted", "served", "rejected", "dropped", "lost_to_crash",
    "slo_violations", "gc_runs", "gc_migrated_pages",
    "nand_reads", "nand_writes", "nand_erases",
    "host_write_bytes", "host_read_bytes",
    "flash_write_bytes", "flash_read_bytes",
    "app_write_bytes", "app_read_bytes",
    "count",
})

_HELP_FOR = {
    "up": "1 while the device shard is powered, 0 inside an outage window",
    "queue_backlog": "queued requests across the device's tenants",
    "queue_depth": "requests queued for the tenant",
    "inflight": "requests in flight at the sample instant",
    "free_pages": "FTL free-page estimate",
    "log_utilization": "device DRAM write-log occupancy (0..1)",
    "write_amplification": "cumulative host bytes per app byte written",
    "latency_p50_ns": "p50 latency (virtual ns)",
    "latency_p95_ns": "p95 latency (virtual ns)",
    "latency_p99_ns": "p99 latency (virtual ns)",
    "mean_ns": "mean latency (virtual ns)",
}

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"(?: (?P<ts>[+-]?[0-9]+))?$"
)


def _metric_name(scope: str, metric: str) -> str:
    name = f"{PREFIX}_{scope}_{metric}"
    if metric in COUNTER_METRICS:
        name += "_total"
    return name


def _labels_of(row: Dict) -> List[Tuple[str, str]]:
    labels: List[Tuple[str, str]] = []
    if row.get("device") is not None:
        labels.append(("device", str(row["device"])))
    if row.get("tenant") is not None:
        labels.append(("tenant", row["tenant"]))
    if row.get("layer") is not None:
        labels.append(("layer", row["layer"]))
    return labels


def _fmt_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}={json.dumps(v)}' for k, v in labels
    )
    return "{" + body + "}"


def _fmt_value(v: Union[int, float]) -> str:
    if isinstance(v, bool):  # pragma: no cover - schema forbids bools
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def render_prometheus(
    source: Union[TelemetrySampler, Sequence[Dict]],
    info: Optional[Dict] = None,
) -> str:
    """Render the latest snapshot as Prometheus text exposition.

    ``source`` is a sampler (its :meth:`latest` snapshot is used) or a
    series row list, which is reduced to the newest row per entity
    (Prometheus forbids duplicate series).  ``info`` key/values become
    labels on a ``repro_run_info`` pseudo-metric, the idiomatic way to
    expose run-level metadata (fs, scheduler, seed) to queries.
    """
    if isinstance(source, TelemetrySampler):
        rows = source.latest()
    else:
        newest: Dict[tuple, Dict] = {}
        for row in sorted(source, key=_row_key):
            newest[_entity_key(row)] = row
        rows = [newest[k] for k in sorted(newest)]
    if isinstance(source, TelemetrySampler) and info is None:
        info = {
            k: source.meta[k] for k in sorted(source.meta)
            if isinstance(source.meta[k], (str, int, float))
        }
    # metric name -> (scope, metric, [(labels, value)])
    families: Dict[str, List[Tuple[str, str]]] = {}
    kinds: Dict[str, Tuple[str, str]] = {}
    for row in rows:
        labels = _fmt_labels(_labels_of(row))
        metrics = row["metrics"]
        for metric in sorted(metrics):
            name = _metric_name(row["scope"], metric)
            kinds[name] = (row["scope"], metric)
            families.setdefault(name, []).append(
                (labels, _fmt_value(metrics[metric]))
            )
    out: List[str] = []
    if info:
        labels = _fmt_labels(
            [(k, str(info[k])) for k in sorted(info)]
        )
        out.append(
            f"# HELP {PREFIX}_run_info run-level metadata as labels"
        )
        out.append(f"# TYPE {PREFIX}_run_info gauge")
        out.append(f"{PREFIX}_run_info{labels} 1")
    for name in sorted(families):
        scope, metric = kinds[name]
        help_text = _HELP_FOR.get(
            metric, f"{scope}-scope sample metric '{metric}'"
        )
        kind = "counter" if metric in COUNTER_METRICS else "gauge"
        out.append(f"# HELP {name} {help_text}")
        out.append(f"# TYPE {name} {kind}")
        for labels, value in families[name]:
            out.append(f"{name}{labels} {value}")
    return "\n".join(out) + "\n"


def parse_exposition(text: str) -> List[str]:
    """Check Prometheus text-format well-formedness; returns problems."""
    problems: List[str] = []
    typed: Dict[str, str] = {}
    seen_sample_of: Dict[str, bool] = {}
    series: Dict[Tuple[str, str], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                if line.startswith(("# HELP", "# TYPE")):
                    problems.append(f"line {lineno}: malformed comment")
                continue  # free-form comments are legal
            kind, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                problems.append(
                    f"line {lineno}: invalid metric name {name!r}"
                )
                continue
            if kind == "TYPE":
                declared = parts[3].strip() if len(parts) > 3 else ""
                if declared not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(
                        f"line {lineno}: unknown TYPE {declared!r}"
                    )
                if name in typed:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name}"
                    )
                elif seen_sample_of.get(name):
                    problems.append(
                        f"line {lineno}: TYPE for {name} after its samples"
                    )
                typed[name] = declared
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: malformed sample line")
            continue
        name = m.group("name")
        seen_sample_of[name] = True
        labels = m.group("labels") or ""
        if labels:
            for pair in _split_labels(labels):
                if not _LABEL_RE.match(pair):
                    problems.append(
                        f"line {lineno}: malformed label {pair!r}"
                    )
        key = (name, labels)
        if key in series:
            problems.append(
                f"line {lineno}: duplicate series {name}{{{labels}}} "
                f"(first at line {series[key]})"
            )
        else:
            series[key] = lineno
    if not series:
        problems.append("no sample lines")
    return problems


def _split_labels(body: str) -> List[str]:
    """Split a label body on commas outside quoted values."""
    out: List[str] = []
    depth_quote = False
    cur: List[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and depth_quote and i + 1 < len(body):
            cur.append(body[i:i + 2])
            i += 2
            continue
        if c == '"':
            depth_quote = not depth_quote
            cur.append(c)
        elif c == "," and not depth_quote:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    if cur:
        out.append("".join(cur))
    return out
