"""Process-parallel serving: the determinism contract of the reducer.

``serve_cluster(..., workers=K)`` shards the cluster over K worker
processes and reduces the per-shard fragments; the contract
(``docs/PERFORMANCE.md``) is that the merged ``repro.cluster.run/v2``
document — and the ``repro.telemetry.series/v1`` output — is
**byte-identical** to the in-process serial run for every K.  These
tests pin that on the same shapes as the ``cluster/*`` rows of
tests/test_pins.py: a plain multi-device run and a faulted one (mid-run device crash
plus a tenant-less faulted device), both with live telemetry sampled.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import TenantSpec, serve_cluster, validate_cluster_run
from repro.faults.plan import DeviceCrash
from repro.telemetry.series import to_lines, validate_series
from tests.conftest import SMALL_GEOMETRY

SAMPLE_NS = 500_000.0


def _tenants(n, n_devices, n_ops=40):
    return [
        TenantSpec(name=f"t{i}", workload="synthetic", n_ops=n_ops,
                   rate_ops_s=200_000.0, device=i % n_devices)
        for i in range(n)
    ]


#: Cluster shapes by case.  "faulted": one loaded device crashing
#: mid-run plus one tenant-less device crashing at a virtual time (both
#: recovery paths the reducer has to order).  "cross_shard": two loaded
#: devices crashing on different shards at W=2, so shard order alone
#: does not put the recovery list in device order.
CASES = {
    "plain": dict(n_devices=2, n_tenant_devices=2, faults=None),
    "faulted": dict(n_devices=3, n_tenant_devices=2, faults=[
        DeviceCrash(device=0, after_ops=9),
        DeviceCrash(device=2, at_s=0.0001),
    ]),
    "cross_shard": dict(n_devices=4, n_tenant_devices=4, faults=[
        DeviceCrash(device=1, after_ops=9),
        DeviceCrash(device=2, after_ops=9),
    ]),
}


def _run(workers, *, case="plain", keep_dispatch_log=False):
    plan = CASES[case]
    res = serve_cluster(
        _tenants(4, plan["n_tenant_devices"]),
        fs_name="bytefs",
        n_devices=plan["n_devices"],
        sched="drr",
        seed=42,
        queue_depth=2,
        max_queue=256,
        geometry=SMALL_GEOMETRY,
        faults=plan["faults"],
        sample_every_ns=SAMPLE_NS,
        keep_dispatch_log=keep_dispatch_log,
        workers=workers,
    )
    doc = json.dumps(res.to_json(), sort_keys=True)
    series = "\n".join(to_lines(res.telemetry))
    return res, doc, series


@pytest.mark.parametrize("case", sorted(CASES))
def test_workers_byte_identical_to_serial(case):
    res0, doc0, series0 = _run(0, case=case)
    assert not validate_cluster_run(res0.to_json())
    assert not validate_series(
        [json.loads(line) for line in series0.splitlines()]
    )
    for workers in (2, 4):
        res, doc, series = _run(workers, case=case)
        assert doc == doc0, f"result document differs at workers={workers}"
        assert series == series0, (
            f"telemetry series differs at workers={workers}"
        )


def test_workers_preserve_dispatch_log_order():
    _, doc0, _ = _run(0, case="faulted", keep_dispatch_log=True)
    _, doc2, _ = _run(2, case="faulted", keep_dispatch_log=True)
    assert doc2 == doc0


def test_workers_capped_at_device_count():
    # More workers than devices must not change anything (W = min).
    _, doc0, series0 = _run(0)
    _, doc9, series9 = _run(9)
    assert doc9 == doc0
    assert series9 == series0


def test_parallel_run_reports_live_only_fields():
    res, _, _ = _run(2)
    assert res.wall_s is not None and res.wall_s > 0
    assert res.layer_calls and all(
        v >= 0 for v in res.layer_calls.values()
    )
    # ... and they never leak into the serialized document.
    doc = res.to_json()
    assert "wall_s" not in doc
    assert "layer_calls" not in doc


def test_traced_requires_serial_path():
    with pytest.raises(ValueError, match="serial"):
        serve_cluster(
            _tenants(2, 2), n_devices=2, geometry=SMALL_GEOMETRY,
            traced=True, workers=2,
        )


def test_parallel_rejects_bad_fault_plan_before_spawn():
    # The error contract must not depend on workers: a bad plan raises
    # the same ValueError the serial path raises.
    with pytest.raises(ValueError):
        serve_cluster(
            _tenants(2, 2), n_devices=2, geometry=SMALL_GEOMETRY,
            faults=[DeviceCrash(device=7, after_ops=1)], workers=2,
        )
