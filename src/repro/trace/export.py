"""Trace exporters: deterministic JSONL and Chrome ``trace_event`` JSON.

Both formats serialise with ``sort_keys=True`` and fixed separators, and
spans carry sequential ids emitted in completion order, so two runs with
identical seeds produce byte-identical output.

JSONL schema (one object per line):

- ``{"type": "meta", ...}`` — first line: format version, workload/fs
  labels, thread count.
- ``{"type": "span", "id": int, "parent": int, "tid": int, "layer": str,
  "op": str, "ts": float, "dur": float, "lane"?: int, "attrs"?: {...},
  "waits"?: {resource: ns}}`` — ``ts``/``dur`` in virtual nanoseconds;
  ``parent`` is 0 for roots; ``lane`` 1 marks background device work.
- ``{"type": "event", "tid": int, "ts": float, "layer": str,
  "name": str, "parent": int, "attrs"?: {...}}``

Chrome format: ``{"traceEvents": [...], "displayTimeUnit": "ns"}`` with
"X" complete events (``ts``/``dur`` in microseconds, as the format
requires), "i" instant events, and "M" metadata naming one pid per
simulated thread and one tid per lane (0 = sync path, 1 = background
device work).  Loadable in Perfetto / chrome://tracing.

Both formats are declared once, in the field tables at the end of this
module; :func:`validate_jsonl` / :func:`validate_chrome` check them
before ``repro trace`` writes the file.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.schema import Map, Opt, Table, Tagged, check, parse_lines
from repro.trace.tracer import LANE_BACKGROUND, LANE_SYNC, Tracer

JSONL_VERSION = 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def to_jsonl(tracer: Tracer, meta: Optional[Dict] = None) -> str:
    """Serialise a tracer's spans and events as JSONL (returns the text)."""
    header = {"type": "meta", "version": JSONL_VERSION,
              "n_threads": tracer.clock.n_threads}
    if meta:
        header.update(meta)
    lines = [_dumps(header)]
    lines.extend(_dumps(s.to_dict()) for s in tracer.spans)
    lines.extend(_dumps(e.to_dict()) for e in tracer.events)
    return "\n".join(lines) + "\n"


def write_jsonl(tracer: Tracer, path, meta: Optional[Dict] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_jsonl(tracer, meta))


def to_chrome(tracer: Tracer, meta: Optional[Dict] = None) -> Dict:
    """Build a Chrome trace_event dict (one pid per simulated thread)."""
    events: List[Dict] = []
    threads = set()
    lanes: Dict[int, set] = {}
    for span in tracer.spans:
        threads.add(span.tid)
        lanes.setdefault(span.tid, set()).add(span.lane)
        ev = {
            "ph": "X",
            "pid": span.tid,
            "tid": span.lane,
            "ts": span.t_start / 1000.0,   # trace_event wants microseconds
            "dur": span.duration_ns / 1000.0,
            "name": f"{span.layer}.{span.op}",
            "cat": span.layer,
            "args": {"id": span.span_id, "parent": span.parent_id},
        }
        if span.attrs:
            ev["args"].update(span.attrs)
        if span.waits:
            ev["args"]["waits"] = span.waits
        events.append(ev)
    for pe in tracer.events:
        threads.add(pe.tid)
        lanes.setdefault(pe.tid, set()).add(LANE_SYNC)
        ev = {
            "ph": "i",
            "pid": pe.tid,
            "tid": LANE_SYNC,
            "ts": pe.t / 1000.0,
            "name": f"{pe.layer}.{pe.name}",
            "cat": pe.layer,
            "s": "t",  # thread-scoped instant
            "args": dict(pe.attrs) if pe.attrs else {},
        }
        events.append(ev)
    meta_events: List[Dict] = []
    for tid in sorted(threads):
        meta_events.append({
            "ph": "M", "pid": tid, "tid": 0, "ts": 0,
            "name": "process_name",
            "args": {"name": f"sim-thread-{tid}"},
        })
        for lane in sorted(lanes.get(tid, ())):
            label = "sync" if lane == LANE_SYNC else "background"
            meta_events.append({
                "ph": "M", "pid": tid, "tid": lane, "ts": 0,
                "name": "thread_name", "args": {"name": label},
            })
    out = {
        "traceEvents": meta_events + events,
        "displayTimeUnit": "ns",
    }
    if meta:
        out["otherData"] = meta
    return out


def to_chrome_json(tracer: Tracer, meta: Optional[Dict] = None) -> str:
    return _dumps(to_chrome(tracer, meta))


def write_chrome(tracer: Tracer, path, meta: Optional[Dict] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_chrome_json(tracer, meta))


LANE = (LANE_SYNC, LANE_BACKGROUND)

#: the first JSONL line; ``fs``/``workload`` are the labels `repro trace`
#: passes as ``meta``
META = Table({"type": ("meta",), "version": (JSONL_VERSION,),
              "n_threads": int, "fs": Opt(str), "workload": Opt(str)})


def _dur_not_negative(rec: Dict, where: str):
    if rec.get("dur", 0) < 0:
        yield f"{where}: negative dur"


#: Span.to_dict() and PointEvent.to_dict(): every line after the first
SPAN = Table({
    "type": str, "id": int, "parent": int, "tid": int, "layer": str,
    "op": str, "ts": float, "dur": float, "lane": Opt(LANE),
    "attrs": Opt(Map()), "waits": Opt(Map(float)),
}, rule=_dur_not_negative)
EVENT = Table({"type": str, "tid": int, "ts": float, "layer": str,
               "name": str, "parent": int, "attrs": Opt(Map())})
RECORD = Tagged("type", {"span": SPAN, "event": EVENT})


def _complete_has_dur(ev: Dict, where: str):
    if ev["ph"] == "X" and "dur" not in ev:
        yield f"{where}: a complete ('X') event needs a dur"
    yield from _dur_not_negative(ev, where)


CHROME_EVENT = Table({
    "ph": ("X", "i", "M", "B", "E"), "pid": int, "tid": LANE,
    "ts": float, "name": str, "dur": Opt(float), "cat": Opt(str),
    "s": Opt(("t", "p", "g")), "args": Opt(Map()),
}, rule=_complete_has_dur)
CHROME = Table({"traceEvents": [CHROME_EVENT],
                "displayTimeUnit": ("ms", "ns"), "otherData": Opt(Map())})


def validate_chrome(doc) -> List[str]:
    """Check a Chrome trace (the dict form or raw JSON text) against
    :data:`CHROME`; returns a list of problems (empty == valid)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            return [f"not valid JSON: {exc}"]
    return check(doc, CHROME)


def validate_jsonl(text: str) -> List[str]:
    """Check JSONL trace text: :data:`META` first, then :data:`RECORD`
    lines with unique span ids."""
    lines = text.splitlines()
    if not lines:
        return ["empty trace"]
    records, problems = parse_lines(lines)
    for i, (n, rec) in enumerate(records):
        problems += check(rec, RECORD if i else META, f"line[{n}]")
    if problems:
        return problems
    seen = set()
    for n, rec in records[1:]:
        if rec["type"] == "span":
            if rec["id"] in seen:
                problems.append(f"line[{n}]: duplicate span id {rec['id']}")
            seen.add(rec["id"])
    return problems
