"""Tests for repro.telemetry: the virtual-time sampler, the series/v1
document, Prometheus exposition, the /metrics endpoint, `repro top`,
and the MetricsRegistry bridge (log-histogram merge).

The integration scenario is the cluster of the pinned rows
``cluster/drr-crash-dev0`` and ``series/drr-crash-dev0`` of
tests/test_pins.py: three tenants on two devices with a mid-run crash on
device 0, so the series captures a full ``up 1 → 0 → 1`` outage.  The
``series/`` row pins that series byte-for-byte.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.cluster import serve_cluster
from repro.faults import DeviceCrash
from repro.telemetry import (
    TelemetrySampler,
    load_series,
    make_server,
    parse_exposition,
    render_prometheus,
    render_top,
    serve_in_thread,
    sparkline,
    to_lines,
    validate_series,
    write_series,
)
from repro.telemetry import sampler as telem
from repro.trace import tracer as trace
from repro.trace.metrics import (
    LogHistogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_index,
)
from tests.conftest import SMALL_GEOMETRY
from tests.test_pins import check, cluster_tenants

SAMPLE_NS = 500_000.0  # 0.5 ms virtual


def _faulted_run(**kw):
    return serve_cluster(
        cluster_tenants(), fs_name="bytefs", n_devices=2, seed=42,
        geometry=SMALL_GEOMETRY, queue_depth=2, max_queue=256,
        sched="drr", faults=[DeviceCrash(0, after_ops=9)],
        sample_every_ns=SAMPLE_NS, **kw,
    )


@pytest.fixture(scope="module")
def faulted():
    # Untraced, like the pinned row: REPRO_TRACE=1 in the environment
    # would auto-attach a tracer and append scope == "layer" rows.  Those rows have their own test
    # (test_traced_run_bridges_layer_quantiles).
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "AUTO", False)
        return _faulted_run()


# ---------------------------------------------------------------------- #
# sampler unit behavior
# ---------------------------------------------------------------------- #

class _StubQueue:
    def __init__(self):
        self.slots = []


def _stub_sampler(**kw):
    s = TelemetrySampler(t0=1000.0, sample_every_ns=100.0, **kw)
    s.add_device(
        0, gauges=lambda: {"g": 7}, queue=_StubQueue(), tenants=[],
        stats=__import__(
            "repro.stats.traffic", fromlist=["TrafficStats"]
        ).TrafficStats(),
        time_of=lambda tid: 0.0,
    )
    return s


def test_sampler_rejects_bad_interval():
    with pytest.raises(ValueError):
        TelemetrySampler(t0=0.0, sample_every_ns=0)


def test_sampler_rejects_duplicate_device():
    s = _stub_sampler()
    with pytest.raises(ValueError):
        s.add_device(0, lambda: {}, _StubQueue(), [], None, lambda t: 0.0)


def test_sampler_emits_every_crossed_boundary_once():
    s = _stub_sampler()
    s.advance(0, 1250.0)   # boundaries 1000, 1100, 1200 (inclusive <= t)
    assert [r["t_ns"] for r in s.rows] == [1000.0, 1100.0, 1200.0]
    s.advance(0, 1250.0)   # idempotent: no boundary re-emitted
    assert len(s.rows) == 3
    s.advance(0, 1300.0)   # boundary exactly at t is included
    assert s.rows[-1]["t_ns"] == 1300.0
    assert all(r["metrics"]["g"] == 7 for r in s.rows)


def test_sampler_outage_window_emits_up_zero():
    s = _stub_sampler()
    s.advance(0, 1000.0)
    s.mark_outage(0, t_down=1050.0, t_up=1340.0)
    ups = {r["t_ns"]: r["metrics"]["up"] for r in s.rows}
    # boundaries in [t_down, t_up) are down; 1400 (> t_up) not emitted yet
    assert ups == {1000.0: 1, 1100.0: 0, 1200.0: 0, 1300.0: 0}
    s.advance(0, 1400.0)
    assert s.rows[-1]["metrics"]["up"] == 1
    assert s.outages == [
        {"device": 0, "t_down_ns": 1050.0, "t_up_ns": 1340.0}
    ]


def test_enabled_guard_is_off_by_default_and_restores():
    assert telem.ENABLED is False and telem.active() is None
    s = _stub_sampler()
    telem.activate(s)
    try:
        assert telem.ENABLED is True and telem.active() is s
    finally:
        telem.deactivate()
    assert telem.ENABLED is False and telem.active() is None


# ---------------------------------------------------------------------- #
# series/v1 schema
# ---------------------------------------------------------------------- #

def test_series_roundtrip_and_validation(faulted, tmp_path):
    path = tmp_path / "series.jsonl"
    n = write_series(faulted.telemetry, str(path))
    recs = load_series(str(path))
    assert len(recs) == n + 1  # header + rows
    assert validate_series(recs) == []
    # raw JSONL lines validate identically
    lines = path.read_text(encoding="utf-8").splitlines()
    assert validate_series(lines) == []
    header = recs[0]
    assert header["schema"] == "repro.telemetry.series/v1"
    assert header["sample_every_ns"] == SAMPLE_NS
    assert header["fs"] == "bytefs" and header["seed"] == 42


def test_series_validator_rejects_malformed_documents():
    assert validate_series([]) != []
    assert any(
        "schema" in p
        for p in validate_series([{"schema": "nope", "sample_every_ns": 1,
                                   "t0_ns": 0, "outages": []}])
    )
    header = {"schema": "repro.telemetry.series/v1", "sample_every_ns": 1,
              "t0_ns": 0, "t_end_ns": None, "outages": []}
    bad_scope = [header, {"t_ns": 1, "scope": "galaxy", "metrics": {"x": 1}}]
    assert any("scope" in p for p in validate_series(bad_scope))
    out_of_order = [
        header,
        {"t_ns": 2, "scope": "device", "device": 0, "metrics": {"up": 1}},
        {"t_ns": 1, "scope": "device", "device": 0, "metrics": {"up": 1}},
    ]
    assert any("out of order" in p for p in validate_series(out_of_order))
    nan_metric = [
        header,
        {"t_ns": 1, "scope": "device", "device": 0,
         "metrics": {"g": float("nan")}},
    ]
    assert any("finite" in p for p in validate_series(nan_metric))
    device_list = [
        header,
        {"t_ns": 1, "scope": "device", "device": [0], "metrics": {"up": 1}},
        {"t_ns": 2, "scope": "device", "device": 0, "metrics": {"up": 1}},
    ]
    problems = validate_series(device_list)
    assert problems and all(isinstance(p, str) for p in problems)


def test_crash_recovery_visible_as_up_transitions(faulted):
    rows = faulted.telemetry.sorted_rows()
    ups = [
        r["metrics"]["up"] for r in rows
        if r["scope"] == "device" and r["device"] == 0
    ]
    # the outage is a contiguous 0-window with 1s on both sides
    assert 0 in ups and ups[0] == 1 and ups[-1] == 1
    first0, last0 = ups.index(0), len(ups) - 1 - ups[::-1].index(0)
    assert all(u == 0 for u in ups[first0:last0 + 1])
    [outage] = faulted.telemetry.outages
    assert outage["device"] == 0
    assert outage["t_down_ns"] < outage["t_up_ns"]
    # device 1 never went down
    assert all(
        r["metrics"]["up"] == 1 for r in rows
        if r["scope"] == "device" and r["device"] == 1
    )


def test_telemetry_series_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_series(_faulted_run().telemetry, str(a))
    write_series(_faulted_run().telemetry, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_series_matches_golden_fixture(pytestconfig):
    check(pytestconfig, "series/drr-crash-dev0")  # ``faulted``'s scenario


def test_telemetry_does_not_perturb_the_simulation():
    """Zero-cost discipline: the result document of a sampled run is
    byte-identical to the same run with telemetry off."""
    with_t = _faulted_run()
    without = serve_cluster(
        cluster_tenants(), fs_name="bytefs", n_devices=2, seed=42,
        geometry=SMALL_GEOMETRY, queue_depth=2, max_queue=256,
        sched="drr", faults=[DeviceCrash(0, after_ops=9)],
    )
    assert without.telemetry is None
    assert json.dumps(with_t.to_json(), sort_keys=True) == \
        json.dumps(without.to_json(), sort_keys=True)


# ---------------------------------------------------------------------- #
# Prometheus exposition + HTTP endpoint
# ---------------------------------------------------------------------- #

def test_prometheus_exposition_well_formed(faulted):
    text = render_prometheus(faulted.telemetry)
    assert parse_exposition(text) == []
    assert "# TYPE repro_device_up gauge" in text
    # cumulative metrics get the counter convention
    assert "# TYPE repro_tenant_served_total counter" in text
    assert 'repro_tenant_served_total{device="0",tenant="a"}' in text
    # run metadata rides on the info pseudo-metric
    assert 'repro_run_info{' in text and 'fs="bytefs"' in text


def test_prometheus_render_deduplicates_series_rows(faulted, tmp_path):
    path = tmp_path / "s.jsonl"
    write_series(faulted.telemetry, str(path))
    recs = load_series(str(path))
    text = render_prometheus(recs[1:])
    assert parse_exposition(text) == []


def test_parse_exposition_flags_malformed_text():
    assert parse_exposition("") == ["no sample lines"]
    assert any(
        "malformed sample" in p
        for p in parse_exposition("metric{ 1\n")
    )
    dup = "m 1\nm 2\n"
    assert any("duplicate series" in p for p in parse_exposition(dup))
    late_type = "m 1\n# TYPE m gauge\n"
    assert any("after its samples" in p for p in parse_exposition(late_type))
    bad_type = "# TYPE m thingy\nm 1\n"
    assert any("unknown TYPE" in p for p in parse_exposition(bad_type))


def test_metrics_endpoint_serves_exposition_and_health(faulted):
    text = render_prometheus(faulted.telemetry)
    srv = make_server(lambda: text, port=0)
    serve_in_thread(srv)
    try:
        host, port = srv.server_address[:2]
        base = f"http://{host}:{port}"
        with urllib.request.urlopen(f"{base}/metrics") as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert resp.read().decode("utf-8") == text
        with urllib.request.urlopen(f"{base}/healthz") as resp:
            assert json.loads(resp.read())["status"] == "ok"
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{base}/nope")
        assert exc.value.code == 404
    finally:
        srv.shutdown()
        srv.server_close()


# ---------------------------------------------------------------------- #
# repro top
# ---------------------------------------------------------------------- #

def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == "▁▁▁"
    line = sparkline([0, 1, 2, 3], width=60)
    assert line[0] == "▁" and line[-1] == "█" and len(line) == 4
    assert len(sparkline(list(range(1000)), width=60)) == 60


def test_render_top_report(faulted, tmp_path):
    path = tmp_path / "s.jsonl"
    write_series(faulted.telemetry, str(path))
    doc = faulted.to_json()
    report = render_top(doc, series=load_series(str(path)), top_n=2)
    assert "top 2 tenants by p99" in report
    assert "per-device utilization timeline" in report
    assert "dev0 backlog" in report and "dev1 backlog" in report
    assert "outages (up 1 → 0 → 1)" in report
    # without a series the report says how to get one
    assert "--telemetry-out" in render_top(doc)


def test_cli_top_command(faulted, tmp_path, capsys):
    from repro.cli import main

    run_path = tmp_path / "run.json"
    series_path = tmp_path / "series.jsonl"
    run_path.write_text(json.dumps(faulted.to_json()), encoding="utf-8")
    write_series(faulted.telemetry, str(series_path))
    assert main(["top", str(run_path), "--series", str(series_path)]) == 0
    out = capsys.readouterr().out
    assert "repro top" in out and "GC storms" in out


# ---------------------------------------------------------------------- #
# MetricsRegistry bridge: log-histogram edges + deterministic merge
# ---------------------------------------------------------------------- #

def test_histogram_zero_samples_quantiles():
    h = LogHistogram()
    assert h.count == 0
    assert h.percentile(50) == 0.0 and h.percentile(99) == 0.0
    assert h.mean == 0.0


def test_histogram_one_sample_quantiles():
    h = LogHistogram()
    h.record(1500.0)
    lo, hi = bucket_bounds(bucket_index(1500.0))
    assert lo <= 1500.0 < hi
    # every quantile of a single sample is its bucket representative
    rep = h.percentile(50)
    assert rep == h.percentile(0) == h.percentile(99)
    assert lo <= rep <= hi
    assert h.min == h.max == 1500.0 and h.mean == 1500.0


@pytest.mark.parametrize("value", [0.5, 1.0, 2.0, 4096.0, 2.0 ** 20])
def test_histogram_bucket_boundary_values(value):
    """Powers of two sit exactly on bucket edges: the index must be the
    *first* sub-bucket of the octave and the bounds must bracket the
    value half-open ([lo, hi))."""
    idx = bucket_index(value)
    lo, hi = bucket_bounds(idx)
    assert lo <= value < hi
    assert bucket_index(lo) == idx
    # one ulp under the boundary lands in the previous octave's last bucket
    import math
    under = math.nextafter(value, 0.0)
    assert bucket_index(under) == idx - 1


def test_histogram_merge_is_exact_and_order_independent():
    xs = [3.0, 17.0, 0.0, 250.0, 1.5, 9999.0]
    ys = [42.0, 0.5, 3.0, 1e6]
    direct = LogHistogram()
    for v in xs + ys:
        direct.record(v)
    a, b = LogHistogram(), LogHistogram()
    for v in xs:
        a.record(v)
    for v in ys:
        b.record(v)
    ab = LogHistogram().merge(a).merge(b)
    ba = LogHistogram().merge(b).merge(a)
    for m in (ab, ba):
        assert m.count == direct.count
        assert m.total == direct.total
        assert m.min == direct.min and m.max == direct.max
        assert m.zero_count == direct.zero_count
        assert m.buckets == direct.buckets
        assert m.percentile(99) == direct.percentile(99)


def test_registry_merge_is_deterministic():
    def build(samples):
        r = MetricsRegistry()
        for name, v in samples:
            r.histogram(name).record(v)
        return r

    r1 = build([("span.ftl.read", 10.0), ("span.fs.write", 20.0)])
    r1.bump("ops", 3)
    r2 = build([("span.ftl.read", 30.0), ("span.nand.program", 5.0)])
    r2.bump("ops", 4)
    r2.bump("gc", 1)
    merged = MetricsRegistry().merge(r1).merge(r2)
    assert merged.counter("ops") == 7 and merged.counter("gc") == 1
    assert merged.histogram_names() == [
        "span.fs.write", "span.ftl.read", "span.nand.program",
    ]
    assert merged.get("span.ftl.read").count == 2
    # merging in the opposite order serializes identically
    other = MetricsRegistry().merge(r2).merge(r1)
    assert json.dumps(merged.to_json(), sort_keys=True) == \
        json.dumps(other.to_json(), sort_keys=True)


def test_traced_run_bridges_layer_quantiles():
    result = serve_cluster(
        cluster_tenants(), fs_name="bytefs", n_devices=2, seed=42,
        geometry=SMALL_GEOMETRY, queue_depth=2, max_queue=256,
        sched="drr", traced=True, sample_every_ns=SAMPLE_NS,
    )
    layer_rows = [
        r for r in result.telemetry.sorted_rows() if r["scope"] == "layer"
    ]
    assert layer_rows, "traced run must emit layer-quantile rows"
    layers = {r["layer"] for r in layer_rows}
    assert "device" in layers
    t_end = result.telemetry.t_end
    for r in layer_rows:
        assert r["t_ns"] == t_end
        m = r["metrics"]
        assert m["count"] > 0
        assert m["latency_p50_ns"] <= m["latency_p99_ns"]
    # the full document (header + layer rows) still validates
    assert validate_series(
        [json.loads(line) for line in to_lines(result.telemetry)]
    ) == []
