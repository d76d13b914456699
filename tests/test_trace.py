"""Cross-layer span tracing: span model, attribution, exporters, metrics.

Covers the acceptance criteria of the tracing tentpole:

* a traced ByteFS ``fsync`` produces a span tree whose root duration
  equals the ``LatencyRecorder`` latency for that op (± float epsilon),
  with synchronous children covering >= 95 % of the root;
* two identical seeded runs emit byte-identical JSONL;
* the disabled tracer is a zero-overhead guard (no tracer API is even
  entered when ``trace.ENABLED`` is False);
* an exported Chrome trace validates against the documented schema.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.bench.harness import run_workload
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.sim.clock import VirtualClock
from repro.stats.traffic import (
    Direction,
    Interface,
    LatencyRecorder,
    StructKind,
    TrafficStats,
)
from repro.trace import tracer as trace
from repro.trace.export import (
    to_chrome,
    to_chrome_json,
    to_jsonl,
    validate_chrome,
    validate_jsonl,
    write_chrome,
    write_jsonl,
)
from repro.trace.metrics import (
    LogHistogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
)
from repro.trace import report
from repro.trace.report import (
    breakdown,
    critical_path,
    critical_path_profile,
    render_breakdown,
    render_critical_path,
)
from repro.trace.tracer import LANE_BACKGROUND, LANE_SYNC, Tracer
from repro.workloads.base import Workload
from tests.conftest import SMALL_GEOMETRY


class FsyncHeavy(Workload):
    """pwrite+fsync pairs: every other measured op is a durability op."""

    name = "fsync-heavy"

    def __init__(self, n_ops: int = 4, n_threads: int = 1, seed: int = 42):
        super().__init__(seed)
        self.n_ops = n_ops
        self.n_threads = n_threads

    def thread_ops(self, fs, tid):
        fd = fs.open(f"/fh-{tid}", O_CREAT | O_RDWR)
        for i in range(self.n_ops):
            fs.pwrite(fd, i * 256, bytes([i % 251] * 256))
            yield "pwrite"
            fs.fsync(fd)
            yield "fsync"
        fs.close(fd)


def traced_run(fs_name: str = "bytefs", n_threads: int = 1, n_ops: int = 4):
    return run_workload(
        fs_name,
        FsyncHeavy(n_ops=n_ops, n_threads=n_threads),
        geometry=SMALL_GEOMETRY,
        traced=True,
    )


def spans_by_id(tracer: Tracer):
    return {s.span_id: s for s in tracer.spans}


def children_of(tracer: Tracer):
    kids = {}
    for s in tracer.spans:
        kids.setdefault(s.parent_id, []).append(s)
    return kids


# ---------------------------------------------------------------------- #
# span tree structure through a full ByteFS fsync
# ---------------------------------------------------------------------- #

def test_fsync_span_tree_nesting_and_parentage():
    result = traced_run()
    tracer = result.trace
    assert tracer is not None and tracer.spans

    by_id = spans_by_id(tracer)
    # Every non-root parent id must resolve, and children must nest
    # inside their parent's time window (background lanes may overhang
    # the end but never start before the parent).
    for span in tracer.spans:
        if span.parent_id == 0:
            continue
        parent = by_id[span.parent_id]
        assert parent.tid == span.tid
        assert span.t_start >= parent.t_start - 1e-9
        if span.lane == LANE_SYNC:
            assert span.t_end <= parent.t_end + 1e-9

    # An fsync root reaches every layer of the ByteFS write path: the
    # VFS syscall, the MMIO link, and the firmware transaction engine.
    kids = children_of(tracer)
    fsync_roots = [s for s in tracer.roots() if s.op == "fsync"]
    assert fsync_roots, "no fsync root spans recorded"
    layers = set()

    def collect(span):
        layers.add(span.layer)
        for kid in kids.get(span.span_id, ()):
            collect(kid)

    for root in fsync_roots:
        collect(root)
    assert {"workload", "vfs", "device", "link", "firmware"} <= layers


def test_root_duration_equals_recorded_latency():
    result = traced_run()
    tracer = result.trace
    # Roots complete in the same order LatencyRecorder.record is called,
    # so the k-th root named `op` pairs with the k-th sample of `op`.
    samples = {
        op: list(result.latency._samples[op]) for op in result.latency.ops()
    }
    seen = {op: 0 for op in samples}
    # Generator-exhaustion tails are kept as explicit "drain" roots (no
    # latency sample is recorded for them); every other root pairs up.
    roots = [s for s in tracer.roots() if s.op != "drain"]
    assert len(roots) == result.ops
    for root in roots:
        k = seen[root.op]
        seen[root.op] += 1
        assert root.duration_ns == pytest.approx(
            samples[root.op][k], abs=1e-6
        )


def test_fsync_children_cover_95_percent_of_root():
    result = traced_run()
    tracer = result.trace
    kids = children_of(tracer)
    for root in tracer.roots():
        if root.op != "fsync" or root.duration_ns <= 0:
            continue
        sync_child_ns = sum(
            k.duration_ns for k in kids.get(root.span_id, ())
            if k.lane == LANE_SYNC
        )
        assert sync_child_ns >= 0.95 * root.duration_ns


def test_breakdown_attributes_nearly_all_fsync_time():
    result = traced_run()
    acc = breakdown(result.trace)["fsync"]
    assert acc.count > 0 and acc.total_ns > 0
    covered = acc.attributed_ns() + sum(acc.wait_ns.values())
    assert covered == pytest.approx(acc.total_ns, rel=0.05)


def test_critical_path_steps_sum_to_root_duration():
    result = traced_run()
    tracer = result.trace
    root = max(tracer.roots(), key=lambda s: s.duration_ns)
    path = critical_path(tracer, root)
    assert path
    assert sum(step.ns for step in path) == pytest.approx(
        root.duration_ns, abs=1e-6
    )
    profile = critical_path_profile(tracer)
    assert profile and all(ns >= 0 for _, ns, _ in profile)


def test_critical_path_profile_indexes_once_and_sums_every_root(
        monkeypatch):
    tracer = traced_run(n_threads=2, n_ops=4).trace
    # the reference: one critical_path (and one index) per root
    totals, hits = {}, {}
    for root in tracer.roots():
        for step in critical_path(tracer, root):
            key = f"{step.layer}.{step.op}"
            totals[key] = totals.get(key, 0.0) + step.ns
            hits[key] = hits.get(key, 0) + 1
    ranked = sorted(totals, key=lambda k: (-totals[k], k))[:10]
    builds = []
    index = report._index
    monkeypatch.setattr(
        report, "_index", lambda t: builds.append(t) or index(t)
    )
    assert critical_path_profile(tracer) == [
        (k, totals[k], hits[k]) for k in ranked
    ]
    assert builds == [tracer]


def test_render_reports_are_text():
    result = traced_run()
    text = render_breakdown(result.trace)
    assert "fsync" in text and "%" in text
    text = render_critical_path(result.trace)
    assert "critical path" in text


def test_multithreaded_spans_stay_on_their_timeline():
    result = traced_run(n_threads=2, n_ops=3)
    tracer = result.trace
    tids = {s.tid for s in tracer.spans}
    assert tids == {0, 1}
    by_id = spans_by_id(tracer)
    for span in tracer.spans:
        if span.parent_id:
            assert by_id[span.parent_id].tid == span.tid


def test_resource_waits_attributed_under_contention():
    # Two threads share the firmware core and the PCIe link; queueing
    # must surface as span waits, not vanish into layer self time.
    result = traced_run(n_threads=2, n_ops=4)
    waited = {
        key
        for span in result.trace.spans if span.waits
        for key in span.waits
    }
    assert waited, "no resource waits recorded under contention"
    acc = breakdown(result.trace)["fsync"]
    assert any(k.startswith("wait:") for k in acc.wait_ns)


# ---------------------------------------------------------------------- #
# determinism
# ---------------------------------------------------------------------- #

def test_identical_seeded_runs_emit_byte_identical_jsonl():
    meta = {"fs": "bytefs", "workload": "fsync-heavy"}
    a = to_jsonl(traced_run(n_threads=2).trace, meta)
    b = to_jsonl(traced_run(n_threads=2).trace, meta)
    assert a == b
    assert to_chrome_json(traced_run().trace) == \
        to_chrome_json(traced_run().trace)


# ---------------------------------------------------------------------- #
# disabled-tracer zero-overhead guard
# ---------------------------------------------------------------------- #

def test_tracing_disabled_by_default_and_off_cost(monkeypatch):
    assert trace.ENABLED is False
    assert trace.active() is None

    def _boom(*a, **k):  # pragma: no cover - must never run
        raise AssertionError("tracer API entered while tracing disabled")

    # Poison every recording entry point: instrumented call sites guard
    # on trace.ENABLED, so an untraced run must not touch any of these.
    for name in ("begin", "end", "span_at", "event", "note_wait"):
        monkeypatch.setattr(trace, name, _boom)
    monkeypatch.setattr(trace, "AUTO", False)
    result = run_workload(
        "bytefs", FsyncHeavy(n_ops=2), geometry=SMALL_GEOMETRY
    )
    assert result.ops == 4
    assert result.trace is None


def test_activated_context_restores_previous_state():
    clock = VirtualClock(1)
    tracer = Tracer(clock)
    assert trace.ENABLED is False
    with trace.activated(tracer):
        assert trace.ENABLED is True
        assert trace.active() is tracer
    assert trace.ENABLED is False
    assert trace.active() is None


def test_auto_env_attaches_metrics_only_tracer(monkeypatch):
    monkeypatch.setattr(trace, "AUTO", True)
    result = run_workload(
        "bytefs", FsyncHeavy(n_ops=2), geometry=SMALL_GEOMETRY
    )
    tracer = result.trace
    assert tracer is not None
    assert tracer.keep_spans is False
    assert tracer.spans == []  # no span retention...
    names = tracer.metrics.histogram_names("span.")
    assert any(n == "span.vfs.fsync" for n in names)  # ...metrics only
    assert tracer.metrics.histogram("span.vfs.fsync").count > 0


# ---------------------------------------------------------------------- #
# tracer unit behaviour
# ---------------------------------------------------------------------- #

def test_exception_unwind_closes_abandoned_children():
    clock = VirtualClock(1)
    tracer = Tracer(clock)
    outer = tracer.begin("a", "outer")
    tracer.begin("b", "inner")
    clock.advance(10.0)
    # inner was abandoned by an exception; ending the outer span must
    # close it first so the stack stays balanced.
    tracer.end(outer)
    assert tracer.open_depth() == 0
    assert [s.op for s in tracer.spans] == ["inner", "outer"]
    assert all(s.t_end == 10.0 for s in tracer.spans)


def test_end_on_empty_stack_and_foreign_span_are_noops():
    clock = VirtualClock(1)
    tracer = Tracer(clock)
    assert tracer.end() is None
    sp = tracer.begin("a", "x")
    tracer.end(sp)
    assert tracer.end(sp) is None  # already closed


def test_background_span_and_orphan_waits():
    clock = VirtualClock(1)
    tracer = Tracer(clock)
    tracer.note_wait("flash", 5.0, 1.0)  # no open span
    assert tracer.orphan_waits == {"flash": 5.0}
    sp = tracer.begin("ftl", "write")
    tracer.note_wait("flash", 3.0, 1.0)
    tracer.note_wait("flash", 2.0, 1.0)
    tracer.span_at("nand", "program", 100.0, 200.0, background=True)
    tracer.end(sp)
    assert sp.waits == {"flash": 5.0}
    nand = [s for s in tracer.spans if s.layer == "nand"][0]
    assert nand.lane == LANE_BACKGROUND
    assert nand.parent_id == sp.span_id
    assert nand.duration_ns == 100.0


def test_point_events_carry_parent_and_metrics():
    clock = VirtualClock(1)
    tracer = Tracer(clock)
    sp = tracer.begin("firmware", "byte_read")
    tracer.event("firmware", "log_hit", lpa=7)
    tracer.end(sp)
    assert len(tracer.events) == 1
    ev = tracer.events[0]
    assert ev.parent_id == sp.span_id
    assert ev.attrs == {"lpa": 7}
    assert tracer.metrics.counter("event.firmware.log_hit") == 1


def test_close_all_flushes_open_stacks():
    clock = VirtualClock(2)
    tracer = Tracer(clock)
    tracer.begin("a", "t0")
    clock.switch(1)
    tracer.begin("a", "t1")
    tracer.close_all()
    assert tracer.open_depth(0) == 0 and tracer.open_depth(1) == 0
    assert {s.op for s in tracer.spans} == {"t0", "t1"}


# ---------------------------------------------------------------------- #
# exporters and schema validation
# ---------------------------------------------------------------------- #

def test_chrome_export_is_valid_and_loads_as_json(tmp_path):
    result = traced_run(n_threads=2, n_ops=3)
    path = tmp_path / "trace.json"
    write_chrome(result.trace, path, {"fs": "bytefs"})
    doc = json.loads(path.read_text())
    assert validate_chrome(doc) == []
    assert doc["displayTimeUnit"] == "ns"
    assert doc["otherData"] == {"fs": "bytefs"}
    # One pid per simulated thread, named via metadata events.
    names = [
        ev for ev in doc["traceEvents"]
        if ev["ph"] == "M" and ev["name"] == "process_name"
    ]
    assert {ev["args"]["name"] for ev in names} == {
        "sim-thread-0", "sim-thread-1"
    }
    # Complete events use microseconds: spot-check one against its span.
    xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    span = result.trace.spans[0]
    match = [e for e in xs if e["args"]["id"] == span.span_id][0]
    assert match["ts"] == pytest.approx(span.t_start / 1000.0)
    assert match["dur"] == pytest.approx(span.duration_ns / 1000.0)


def test_jsonl_export_round_trips_and_validates(tmp_path):
    result = traced_run()
    path = tmp_path / "trace.jsonl"
    write_jsonl(result.trace, path, {"workload": "fsync-heavy"})
    text = path.read_text()
    assert validate_jsonl(text) == []
    lines = [json.loads(l) for l in text.splitlines()]
    assert lines[0]["type"] == "meta"
    assert lines[0]["workload"] == "fsync-heavy"
    spans = [r for r in lines if r["type"] == "span"]
    assert len(spans) == len(result.trace.spans)
    ids = {r["id"] for r in spans}
    assert all(r["parent"] == 0 or r["parent"] in ids for r in spans)


def test_validators_reject_malformed_documents():
    assert validate_chrome("{not json")
    assert validate_chrome({"traceEvents": "nope"})
    assert validate_chrome(
        {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0, "ts": 0.0,
                          "name": "x"}],
         "displayTimeUnit": "ns"}
    )  # complete event without dur
    assert validate_jsonl("") == ["empty trace"]
    assert validate_jsonl('{"type": "span"}\n')  # missing meta header
    good = to_jsonl(traced_run(n_ops=1).trace)
    assert validate_jsonl(good) == []
    assert validate_jsonl(good + '{"type": "mystery"}\n')
    span = json.loads(good.splitlines()[1])
    for bad in (
        "[1]\n",
        good + json.dumps(dict(span, id=[1])) + "\n",
        good + json.dumps(dict(span, ts="x", dur="y")) + "\n",
    ):
        problems = validate_jsonl(bad)
        assert problems and all(isinstance(p, str) for p in problems)


# ---------------------------------------------------------------------- #
# log-scaled histograms
# ---------------------------------------------------------------------- #

def test_bucket_bounds_invert_bucket_index():
    for v in (1e-3, 0.5, 1.0, 3.7, 1024.0, 123456.789):
        lo, hi = bucket_bounds(bucket_index(v))
        assert lo <= v < hi


def test_log_histogram_tracks_exact_count_sum_min_max():
    h = LogHistogram()
    data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    for v in data:
        h.record(v)
    assert h.count == len(data)
    assert h.total == sum(data)
    assert h.min == 1.0 and h.max == 9.0
    assert h.mean == pytest.approx(sum(data) / len(data))


def test_log_histogram_percentile_bounded_relative_error():
    h = LogHistogram()
    data = [float(i) for i in range(1, 2000)]
    for v in data:
        h.record(v)
    for pct in (50, 90, 95, 99):
        exact = data[int(round((pct / 100.0) * (len(data) - 1)))]
        approx = h.percentile(pct)
        assert abs(approx - exact) / exact < 0.05


def test_log_histogram_zero_and_empty():
    h = LogHistogram()
    assert h.percentile(50) == 0.0
    h.record(0.0)
    h.record(0.0)
    h.record(10.0)
    assert h.zero_count == 2
    assert h.percentile(10) == 0.0
    d = h.to_dict()
    assert d["count"] == 3 and d["zero_count"] == 2
    json.dumps(d)  # serialisable


def test_metrics_registry_names_and_json():
    reg = MetricsRegistry()
    reg.histogram("span.b").record(1.0)
    reg.histogram("span.a").record(2.0)
    reg.bump("events", 3)
    assert reg.histogram_names("span.") == ["span.a", "span.b"]
    assert reg.get("span.a").count == 1
    assert reg.get("missing") is None
    assert reg.counter("events") == 3
    doc = reg.to_json()
    assert list(doc["histograms"]) == ["span.a", "span.b"]
    json.dumps(doc)


# ---------------------------------------------------------------------- #
# satellite: LatencyRecorder cached percentiles + summary
# ---------------------------------------------------------------------- #

def test_latency_recorder_summary_matches_percentile():
    rec = LatencyRecorder()
    for v in (5.0, 1.0, 3.0, 2.0, 4.0):
        rec.record("op", v)
    s = rec.summary("op")
    assert s["count"] == 5
    assert s["mean"] == pytest.approx(3.0)
    assert s["p50"] == rec.percentile("op", 50)
    assert s["p95"] == rec.percentile("op", 95)
    assert s["p99"] == rec.percentile("op", 99)


def test_latency_recorder_cache_invalidated_on_record():
    rec = LatencyRecorder()
    rec.record("op", 10.0)
    assert rec.percentile("op", 50) == 10.0  # populates the cache
    rec.record("op", 30.0)
    assert rec.percentile("op", 50) == 20.0  # cache rebuilt, not stale
    rec.reset()
    assert math.isnan(rec.percentile("op", 50))


def test_latency_recorder_summary_empty_op():
    s = LatencyRecorder().summary("never")
    assert s["count"] == 0
    assert all(math.isnan(s[k]) for k in ("mean", "p50", "p95", "p99"))


# ---------------------------------------------------------------------- #
# satellite: JSON-serialisable stats and run reports
# ---------------------------------------------------------------------- #

def test_traffic_stats_to_json_uses_string_keys():
    stats = TrafficStats()
    stats.record_host_ssd(
        StructKind.DATA, Direction.WRITE, Interface.BYTE, 64
    )
    stats.record_flash(StructKind.OTHER, Direction.READ, 4096)
    stats.record_app(Direction.WRITE, 64)
    doc = stats.to_json()
    assert doc["host_ssd"] == {"data:write:byte": 64}
    assert doc["flash"] == {"other:read": 4096}
    assert doc["app"] == {"write": 64}
    json.dumps(doc)


def test_run_result_to_json_is_serialisable():
    result = traced_run(n_ops=2)
    doc = result.to_json()
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["fs"] == "bytefs"
    assert parsed["ops"] == result.ops == 4
    assert parsed["latency"]["fsync"]["count"] == 2
    assert parsed["traffic"]["host_ssd"]
    assert parsed["bytes"]["app_write"] > 0
