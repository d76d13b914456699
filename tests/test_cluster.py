"""repro.cluster: scheduling invariants, QoS isolation, sharding,
determinism, and the versioned result schema.

The headline test is the noisy-neighbour bound: a permanently
backlogged heavy tenant must not be able to blow up a light tenant's
p99 under weighted-fair scheduling the way it does under FIFO.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cluster import (
    ALL_OPS,
    SCHEMA,
    NamespacedFS,
    TenantSpec,
    default_tenants,
    make_scheduler,
    place_tenant,
    serve_cluster,
    validate_cluster_run,
)
from repro.cluster.sched import AdmissionQueue
from repro.core.bytefs import build_stack
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.sim.clock import SEC
from tests.conftest import SMALL_GEOMETRY

#: A deliberately unfair pair: `heavy` floods 64 KB writes ~2x faster
#: than the device serves them; `light` issues small reads at a gentle
#: rate with a tight SLO.  Both pinned to one device so they contend.
LIGHT = dict(name="light", workload="light", rate_ops_s=2_000.0,
             slo_ms=2.0, n_ops=80, device=0)
HEAVY = dict(name="heavy", workload="heavy", rate_ops_s=50_000.0,
             slo_ms=50.0, n_ops=160, device=0)


def _serve(sched: str, *, light=None, heavy=None, **kw):
    tenants = [
        TenantSpec(**{**LIGHT, **(light or {})}),
        TenantSpec(**{**HEAVY, **(heavy or {})}),
    ]
    kw.setdefault("geometry", SMALL_GEOMETRY)
    kw.setdefault("queue_depth", 1)
    kw.setdefault("max_queue", 256)
    return serve_cluster(tenants, sched=sched, **kw)


# ---------------------------------------------------------------------- #
# the acceptance criterion: weighted-fair bounds the noisy neighbour
# ---------------------------------------------------------------------- #

def test_drr_bounds_noisy_neighbour_tail_vs_fifo():
    fifo = _serve("fifo")
    drr = _serve("drr")
    fifo_p99 = fifo.tenant("light").latency.percentile(ALL_OPS, 99)
    drr_p99 = drr.tenant("light").latency.percentile(ALL_OPS, 99)
    # Under FIFO the light tenant's requests queue behind the heavy
    # backlog; under DRR each round serves the light tenant promptly.
    assert drr_p99 * 2 < fifo_p99, (
        f"DRR p99 {drr_p99 / 1e3:.0f}us not well below "
        f"FIFO p99 {fifo_p99 / 1e3:.0f}us"
    )
    assert (
        drr.tenant("light").slo_violations
        <= fifo.tenant("light").slo_violations
    )
    # Fairness costs the aggressor, not the victim: heavy still gets
    # the residual bandwidth and everyone's requests are all served.
    for result in (fifo, drr):
        for t in result.tenants:
            assert t.submitted == t.ops + t.rejected + t.dropped


def test_fifo_head_of_line_blocking_is_real():
    """The baseline must actually exhibit the pathology the QoS policies
    exist to fix, or the comparison above is vacuous."""
    fifo = _serve("fifo")
    light = fifo.tenant("light")
    p99 = light.latency.percentile(ALL_OPS, 99)
    p50 = light.latency.percentile(ALL_OPS, 50)
    assert p99 > 10 * p50
    assert fifo.tenant("heavy").ops > 0


# ---------------------------------------------------------------------- #
# work conservation (provable from the dispatch log at queue depth 1)
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("sched", ["fifo", "drr"])
def test_work_conservation(sched):
    result = _serve(sched, keep_dispatch_log=True)
    log = result.dispatch_log
    assert log, "dispatch log empty"
    arrivals = [d["arrival"] for d in log]
    assert log[0]["begin"] == min(arrivals)
    for i in range(len(log) - 1):
        # The device never idles while work is pending: the next grant
        # starts the instant the device frees OR the next request
        # arrives, whichever is later.
        pending_min = min(arrivals[i + 1:])
        expect = max(log[i]["end"], pending_min)
        assert log[i + 1]["begin"] == expect, (
            f"device idled: dispatch {i + 1} began {log[i + 1]['begin']}"
            f" expected {expect}"
        )


def test_token_bucket_is_not_work_conserving():
    """With the heavy tenant rate-capped, the device is deliberately
    left idle: total elapsed grows and heavy throughput drops to the
    cap (which is the whole point of a rate limiter)."""
    capped = _serve(
        "token-bucket",
        heavy=dict(limit_ops_s=500.0, burst_ops=4),
        keep_dispatch_log=True,
    )
    begins = sorted(
        d["begin"] for d in capped.dispatch_log if d["tenant"] == "heavy"
    )
    burst, rate = 4, 500.0
    n = len(begins)
    assert n > burst
    for i in range(n):
        for j in range(i + 1, n):
            window_s = (begins[j] - begins[i]) / SEC
            assert j - i <= burst + rate * window_s + 1, (
                f"{j - i} heavy dispatches in {window_s * 1e3:.2f} ms "
                f"exceeds the {rate} ops/s cap (burst {burst})"
            )


# ---------------------------------------------------------------------- #
# starvation freedom and weighted sharing under skew
# ---------------------------------------------------------------------- #

def test_drr_no_starvation_under_skew():
    """While the light tenant has a request pending, DRR never lets the
    heavy tenant monopolize the device for more than a few grants."""
    result = _serve("drr", keep_dispatch_log=True)
    log = result.dispatch_log
    light_windows = [
        (d["arrival"], d["end"]) for d in log if d["tenant"] == "light"
    ]

    def light_pending(t: float) -> bool:
        return any(a <= t < e for a, e in light_windows)

    worst = run = 0
    for d in log:
        if d["tenant"] == "heavy" and light_pending(d["begin"]):
            run += 1
            worst = max(worst, run)
        else:
            run = 0
    # DRR's starvation bound: one turn spends at most quantum * weight of
    # deficit, so a turn grants at most ceil(quantum / min_service) ops
    # (+1 because the last op may overdraw the deficit).
    quantum = result.scheduler["quantum_ns"]
    min_service = min(
        d["end"] - d["begin"] for d in log if d["tenant"] == "heavy"
    )
    bound = math.ceil(quantum / min_service) + 1
    assert worst <= bound, (
        f"{worst} consecutive heavy grants while light waited "
        f"(DRR turn bound is {bound})"
    )
    assert result.tenant("light").ops == LIGHT["n_ops"]


def test_drr_weights_split_service_proportionally():
    """Two identical permanently-backlogged tenants with weights 4:1
    split device service roughly 4:1."""
    tenants = [
        TenantSpec(name="big", workload="heavy", rate_ops_s=50_000.0,
                   weight=4, n_ops=120, device=0),
        TenantSpec(name="small", workload="heavy", rate_ops_s=50_000.0,
                   weight=1, n_ops=120, device=0),
    ]
    result = serve_cluster(
        tenants, sched="drr", geometry=SMALL_GEOMETRY,
        queue_depth=1, max_queue=512, keep_dispatch_log=True,
    )
    log = result.dispatch_log
    # Only the window where BOTH are backlogged is a fair-share regime:
    # once one side's arrivals dry up, the other rightfully takes all.
    last_start = max(
        min(d["arrival"] for d in log if d["tenant"] == name)
        for name in ("big", "small")
    )
    first_end = min(
        max(d["arrival"] for d in log if d["tenant"] == name)
        for name in ("big", "small")
    )
    big = sum(
        d["end"] - d["begin"] for d in log
        if d["tenant"] == "big" and last_start <= d["begin"] <= first_end
    )
    small = sum(
        d["end"] - d["begin"] for d in log
        if d["tenant"] == "small" and last_start <= d["begin"] <= first_end
    )
    assert small > 0
    ratio = big / small
    assert 2.0 < ratio < 8.0, f"weight-4 : weight-1 service ratio {ratio:.2f}"


# ---------------------------------------------------------------------- #
# admission control
# ---------------------------------------------------------------------- #

def test_admission_control_rejects_when_backlog_full():
    result = _serve("fifo", max_queue=4)
    heavy = result.tenant("heavy")
    assert heavy.rejected > 0
    assert heavy.submitted == heavy.ops + heavy.rejected + heavy.dropped
    # the gentle tenant never hits the cap
    assert result.tenant("light").rejected == 0


def test_max_queue_one_still_serves():
    result = _serve("drr", max_queue=1)
    assert result.tenant("light").ops > 0
    assert result.tenant("heavy").ops > 0


# ---------------------------------------------------------------------- #
# determinism
# ---------------------------------------------------------------------- #

def test_serve_is_deterministic_byte_for_byte():
    docs = [
        json.dumps(
            serve_cluster(
                default_tenants(3, n_ops=30),
                sched="drr", n_devices=2, geometry=SMALL_GEOMETRY,
            ).to_json(),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    assert docs[0] == docs[1]


def test_seed_changes_the_run():
    a = serve_cluster(
        default_tenants(2, n_ops=20), geometry=SMALL_GEOMETRY, seed=1,
    )
    b = serve_cluster(
        default_tenants(2, n_ops=20), geometry=SMALL_GEOMETRY, seed=2,
    )
    assert a.to_json() != b.to_json()
    assert a.to_json()["seed"] == 1


# ---------------------------------------------------------------------- #
# sharding and namespaces
# ---------------------------------------------------------------------- #

def test_placement_deterministic_and_pinnable():
    spec = TenantSpec(name="alpha")
    assert place_tenant(spec, 4) == place_tenant(spec, 4)
    pinned = TenantSpec(name="alpha", device=3)
    assert place_tenant(pinned, 4) == 3
    with pytest.raises(ValueError):
        place_tenant(TenantSpec(name="x", device=4), 4)


def test_tenants_spread_across_devices():
    result = serve_cluster(
        default_tenants(6, n_ops=10),
        n_devices=2, geometry=SMALL_GEOMETRY,
    )
    devices = {t.device for t in result.tenants}
    assert devices == {0, 1}
    assert len(result.devices) == 2
    for summary in result.devices:
        assert summary["app_write"] + summary["app_read"] > 0


def test_namespaces_isolate_identical_paths():
    clock, _stats, _dev, fs = build_stack(
        "bytefs", geometry=SMALL_GEOMETRY
    )
    a = NamespacedFS(fs, "tn-a")
    b = NamespacedFS(fs, "tn-b")
    for ns in (a, b):
        fs.mkdir(ns.root)
        ns.mkdir("/data")
    fd = a.open("/data/f", O_CREAT | O_RDWR)
    a.write(fd, b"from-a")
    a.close(fd)
    assert a.exists("/data/f")
    assert not b.exists("/data/f")
    assert fs.exists("/tn-a/data/f")
    fd = b.open("/data/f", O_CREAT | O_RDWR)
    b.write(fd, b"from-b")
    b.close(fd)
    fd = a.open("/data/f", O_RDWR)
    assert a.read(fd, 16) == b"from-a"
    a.close(fd)


def test_duplicate_tenant_names_rejected():
    with pytest.raises(ValueError):
        serve_cluster(
            [TenantSpec(name="t"), TenantSpec(name="t")],
            geometry=SMALL_GEOMETRY,
        )


# ---------------------------------------------------------------------- #
# result schema
# ---------------------------------------------------------------------- #

def test_result_document_validates():
    result = serve_cluster(
        default_tenants(2, n_ops=15), geometry=SMALL_GEOMETRY,
    )
    doc = result.to_json()
    assert doc["schema"] == SCHEMA
    assert validate_cluster_run(doc) == []
    # the document survives a JSON round trip intact
    assert validate_cluster_run(json.loads(json.dumps(doc))) == []


def test_validator_rejects_malformed_documents():
    result = serve_cluster(
        default_tenants(2, n_ops=10), geometry=SMALL_GEOMETRY,
    )
    doc = result.to_json()

    bad = dict(doc, schema="repro.cluster.run/v0")
    assert any("schema" in p for p in validate_cluster_run(bad))

    bad = {k: v for k, v in doc.items() if k != "tenants"}
    assert any("tenants" in p for p in validate_cluster_run(bad))

    bad = json.loads(json.dumps(doc))
    bad["tenants"][0]["submitted"] += 1
    assert any("ledger" in p or "submitted" in p
               for p in validate_cluster_run(bad))

    assert validate_cluster_run([]) == ["document is not an object"]


def test_latency_and_counters_consistent():
    result = serve_cluster(
        default_tenants(2, n_ops=25), geometry=SMALL_GEOMETRY,
    )
    assert result.ops == sum(t.ops for t in result.tenants)
    assert result.latency.count(ALL_OPS) == result.ops
    for t in result.tenants:
        assert t.latency.count(ALL_OPS) == t.ops
        summary = t.latency.summary(ALL_OPS)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert not math.isnan(summary["mean"])


# ---------------------------------------------------------------------- #
# tracing integration
# ---------------------------------------------------------------------- #

def test_traced_serve_tags_spans_with_tenant_and_device():
    result = serve_cluster(
        default_tenants(2, n_ops=12), geometry=SMALL_GEOMETRY, traced=True,
    )
    roots = [s for s in result.trace.roots() if s.layer == "cluster"]
    assert len(roots) == result.ops
    tenants = {s.attrs["tenant"] for s in roots}
    assert tenants == {t.name for t in result.tenants}
    assert all("device" in s.attrs for s in roots)
    assert all(s.op in ("read", "write") for s in roots)


def test_queueing_delay_attributed_to_device_queue_group():
    result = _serve("fifo", traced=True)
    roots = [
        s for s in result.trace.roots()
        if s.layer == "cluster" and s.waits
    ]
    assert any(
        any(key.startswith("dev0.nvmeq") for key in s.waits)
        for s in roots
    ), "no span carries admission-queue wait attribution"


# ---------------------------------------------------------------------- #
# scheduler construction
# ---------------------------------------------------------------------- #

def test_make_scheduler_rejects_unknown_policy():
    with pytest.raises(ValueError):
        make_scheduler("cfq", [])


def test_admission_queue_validates_depth():
    with pytest.raises(ValueError):
        AdmissionQueue(0, 0)
    q = AdmissionQueue(1, 3)
    assert q.depth == 3
    assert [slot.busy_until for slot in q.slots] == [0.0, 0.0, 0.0]
