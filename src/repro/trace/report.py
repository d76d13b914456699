"""Latency attribution over a span tree.

Two reports:

- :func:`breakdown` — per-op, per-layer **exclusive** time: for every
  root span (one per traced workload op), each span's self time is its
  duration minus the duration of its synchronous children, attributed to
  ``layer``; resource waits recorded on spans are broken out separately
  so queueing shows up as "wait:flash-ch3" rather than inflating the
  layer that happened to block.  Background spans (lane 1) overlap the
  foreground and are reported as a separate overlap column instead of
  being summed into op latency.

- :func:`critical_path` — for multi-threaded runs: walks the longest
  chain of synchronous spans from each root and aggregates which
  (layer, op) pairs dominate the slowest ops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.trace.tracer import LANE_SYNC, Span, Tracer


def _index(tracer: Tracer) -> Tuple[Dict[int, Span], Dict[int, List[Span]]]:
    by_id: Dict[int, Span] = {}
    children: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        by_id[span.span_id] = span
        children.setdefault(span.parent_id, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.t_start, s.span_id))
    return by_id, children


class OpBreakdown:
    """Attributed latency for one op name across all its root spans."""

    def __init__(self, op: str) -> None:
        self.op = op
        self.count = 0
        self.total_ns = 0.0
        self.self_ns: Dict[str, float] = {}     # layer -> exclusive ns
        self.wait_ns: Dict[str, float] = {}     # resource -> queueing ns
        self.background_ns: Dict[str, float] = {}  # layer -> overlapped ns

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def attributed_ns(self) -> float:
        return sum(self.self_ns.values())

    def to_json(self) -> Dict:
        return {
            "op": self.op,
            "count": self.count,
            "total_ns": self.total_ns,
            "mean_ns": self.mean_ns,
            "self_ns": dict(sorted(self.self_ns.items())),
            "wait_ns": dict(sorted(self.wait_ns.items())),
            "background_ns": dict(sorted(self.background_ns.items())),
        }


def breakdown(tracer: Tracer) -> Dict[str, OpBreakdown]:
    """Per-op per-layer exclusive-time attribution (see module doc)."""
    _, children = _index(tracer)
    out: Dict[str, OpBreakdown] = {}

    def walk(span: Span, acc: OpBreakdown) -> None:
        kids = children.get(span.span_id, ())
        sync_child_ns = 0.0
        for kid in kids:
            if kid.lane == LANE_SYNC:
                sync_child_ns += kid.duration_ns
                walk(kid, acc)
            else:
                acc.background_ns[kid.layer] = (
                    acc.background_ns.get(kid.layer, 0.0) + kid.duration_ns
                )
                # background subtrees still attribute internally
                walk(kid, acc)
        if span.lane == LANE_SYNC:
            self_ns = span.duration_ns - sync_child_ns
            wait_total = 0.0
            if span.waits:
                for key, ns in span.waits.items():
                    wkey = f"wait:{key}"
                    acc.wait_ns[wkey] = acc.wait_ns.get(wkey, 0.0) + ns
                    wait_total += ns
            # keep self time and wait time disjoint: the wait happened
            # inside this span's exclusive window
            self_ns -= min(wait_total, self_ns)
            acc.self_ns[span.layer] = (
                acc.self_ns.get(span.layer, 0.0) + self_ns
            )

    for root in tracer.roots():
        acc = out.get(root.op)
        if acc is None:
            acc = out[root.op] = OpBreakdown(root.op)
        acc.count += 1
        acc.total_ns += root.duration_ns
        walk(root, acc)
    return out


class CriticalPathStep:
    __slots__ = ("layer", "op", "ns", "waits")

    def __init__(self, layer: str, op: str, ns: float,
                 waits: Optional[Dict[str, float]]) -> None:
        self.layer = layer
        self.op = op
        self.ns = ns
        self.waits = waits

    def to_json(self) -> Dict:
        out = {"layer": self.layer, "op": self.op, "ns": self.ns}
        if self.waits:
            out["waits"] = dict(sorted(self.waits.items()))
        return out


def critical_path(tracer: Tracer, root: Optional[Span] = None
                  ) -> List[CriticalPathStep]:
    """Longest synchronous-span chain from a root (slowest root if None).

    Each step reports the span's *exclusive* time along the chain (its
    duration minus the chosen child's), so the steps sum to the root
    duration.
    """
    if root is None:
        roots = tracer.roots()
        if not roots:
            return []
        root = max(roots, key=lambda s: (s.duration_ns, -s.span_id))
    return _chain(_index(tracer)[1], root)


def _chain(children: Dict[int, List[Span]], root: Span
           ) -> List[CriticalPathStep]:
    """:func:`critical_path` over an index :func:`_index` built."""
    path: List[CriticalPathStep] = []
    span = root
    while True:
        kids = [k for k in children.get(span.span_id, ())
                if k.lane == LANE_SYNC]
        if not kids:
            path.append(CriticalPathStep(
                span.layer, span.op, span.duration_ns, span.waits))
            return path
        longest = max(kids, key=lambda s: (s.duration_ns, -s.span_id))
        path.append(CriticalPathStep(
            span.layer, span.op, span.duration_ns - longest.duration_ns,
            span.waits))
        span = longest


def critical_path_profile(tracer: Tracer, top: int = 10
                          ) -> List[Tuple[str, float, int]]:
    """Aggregate critical-path steps across all roots.

    Returns ``[(layer.op, total_ns_on_critical_paths, hits)]`` sorted by
    total time, for multi-threaded runs where no single op tells the
    story.  One index serves every root.
    """
    _, children = _index(tracer)
    totals: Dict[str, float] = {}
    hits: Dict[str, int] = {}
    for root in tracer.roots():
        for step in _chain(children, root):
            key = f"{step.layer}.{step.op}"
            totals[key] = totals.get(key, 0.0) + step.ns
            hits[key] = hits.get(key, 0) + 1
    ranked = sorted(totals, key=lambda k: (-totals[k], k))[:top]
    return [(k, totals[k], hits[k]) for k in ranked]


# ---------------------------------------------------------------------- #
# text rendering
# ---------------------------------------------------------------------- #

def _us(ns: float) -> str:
    return f"{ns / 1000.0:10.2f}"


def render_breakdown(tracer: Tracer) -> str:
    """Human-readable per-op latency attribution table."""
    lines: List[str] = []
    for op, acc in sorted(breakdown(tracer).items()):
        lines.append(
            f"{op}  n={acc.count}  mean={acc.mean_ns / 1000.0:.2f}us  "
            f"total={acc.total_ns / 1000.0:.2f}us"
        )
        total = acc.total_ns or 1.0
        rows = [(f"self:{layer}", ns) for layer, ns in acc.self_ns.items()]
        rows += list(acc.wait_ns.items())
        for label, ns in sorted(rows, key=lambda r: (-r[1], r[0])):
            lines.append(
                f"    {label:<28} {_us(ns)}us  {100.0 * ns / total:5.1f}%"
            )
        for layer, ns in sorted(acc.background_ns.items()):
            lines.append(
                f"    overlap:{layer:<20} {_us(ns)}us  (background)"
            )
        covered = acc.attributed_ns() + sum(acc.wait_ns.values())
        lines.append(
            f"    {'(attributed)':<28} {_us(covered)}us  "
            f"{100.0 * covered / total:5.1f}%"
        )
    return "\n".join(lines) if lines else "(no spans recorded)"


def render_critical_path(tracer: Tracer) -> str:
    """Slowest-root critical path plus the cross-root profile."""
    lines: List[str] = []
    path = critical_path(tracer)
    if not path:
        return "(no spans recorded)"
    total = sum(step.ns for step in path)
    lines.append(f"critical path of slowest op ({total / 1000.0:.2f}us):")
    for step in path:
        lines.append(
            f"    {step.layer + '.' + step.op:<32} {_us(step.ns)}us"
        )
        if step.waits:
            for key, ns in sorted(step.waits.items()):
                lines.append(f"        wait {key:<23} {_us(ns)}us")
    lines.append("")
    lines.append("critical-path profile (all ops):")
    for key, ns, hits in critical_path_profile(tracer):
        lines.append(f"    {key:<32} {_us(ns)}us  x{hits}")
    return "\n".join(lines)
