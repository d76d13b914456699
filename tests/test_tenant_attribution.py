"""Per-tenant traffic attribution: every byte of a drain is billed once.

The kernel takes a device's traffic totals once per op (the *after* of
one op is the *before* of the next) and re-takes them wherever the
device is touched between ops.  So over a drain, for each of the six
traffic keys,

    Σ tenants' traffic[k]  ==  device total[k]
                               − what recovery moved
                               − what a generator did past its last yield

— recovery traffic and a finished neighbour's tail are never billed to a
tenant.  Checked on a plain two-device run, on a ``crash:dev0@ops=N+torn``
run, and with a tenant whose generator does I/O after its last ``yield``.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.cluster import TenantSpec, kernel, serve_cluster, worker
from repro.cluster.tenant import SyntheticTenantWorkload
from repro.faults.plan import DeviceCrash
from repro.fs.vfs import O_RDWR
from tests.conftest import SMALL_GEOMETRY

KEYS = kernel._TRAFFIC_KEYS


def _tenants():
    return [
        TenantSpec(name="a", workload="mixed", rate_ops_s=4_000.0,
                   n_ops=24, device=0),
        TenantSpec(name="tail", workload="mixed", rate_ops_s=4_000.0,
                   n_ops=12, device=0),
        TenantSpec(name="b", workload="heavy", rate_ops_s=20_000.0,
                   n_ops=16, device=0),
        TenantSpec(name="c", workload="light", rate_ops_s=1_000.0,
                   n_ops=10, device=1),
        TenantSpec(name="d", workload="mixed", rate_ops_s=4_000.0,
                   n_ops=20, device=1),
    ]


class _Ledger:
    """Per-device six-key deltas, measured from outside the kernel."""

    def __init__(self) -> None:
        self.drain = {}
        self.recovery = defaultdict(lambda: [0] * len(KEYS))
        self.tail = defaultdict(lambda: [0] * len(KEYS))

    @staticmethod
    def delta(before, after):
        return [a - b for a, b in zip(after, before)]

    def add(self, bucket, device, before, after) -> None:
        moved = self.delta(before, after)
        bucket[device] = [x + y for x, y in zip(bucket[device], moved)]


def _serve_with_ledger(monkeypatch, tail: bool, **kw):
    ledger = _Ledger()
    totals = kernel._traffic_totals

    run_device_drain = worker.run_device_drain

    def drain_spy(clock, device, tenants, sched, queue, stats, *args):
        before = totals(stats)
        try:
            return run_device_drain(
                clock, device, tenants, sched, queue, stats, *args
            )
        finally:
            ledger.drain[device] = ledger.delta(before, totals(stats))

    crash_and_recover = kernel.crash_and_recover

    def recovery_spy(clock, device, device_obj, fs, tenants, queue, sched,
                     stats, *args):
        before = totals(stats)
        try:
            return crash_and_recover(
                clock, device, device_obj, fs, tenants, queue, sched,
                stats, *args
            )
        finally:
            ledger.add(ledger.recovery, device, before, totals(stats))

    class TailWorkload(SyntheticTenantWorkload):
        """Yields three ops fewer than its tenant has arrivals, then
        writes and fsyncs once more before the generator returns."""

        def thread_ops(self, fs, tid):
            yield from super().thread_ops(fs, tid)
            before = totals(fs.stats)
            fd = fs.open("/data/f0", O_RDWR)
            fs.pwrite(fd, 0, b"T" * 8192)
            fs.fsync(fd)
            fs.close(fd)
            ledger.add(ledger.tail, 0, before, totals(fs.stats))

    make_tenant_workload = kernel.make_tenant_workload

    def make_workload(spec, seed):
        workload = make_tenant_workload(spec, seed)
        if tail and spec.name == "tail":
            workload.__class__ = TailWorkload
            workload.n_ops = spec.n_ops - 3
        return workload

    monkeypatch.setattr(worker, "run_device_drain", drain_spy)
    monkeypatch.setattr(kernel, "crash_and_recover", recovery_spy)
    monkeypatch.setattr(kernel, "make_tenant_workload", make_workload)
    result = serve_cluster(
        _tenants(), fs_name="bytefs", n_devices=2, sched="drr", seed=42,
        geometry=SMALL_GEOMETRY, queue_depth=2, max_queue=256, **kw,
    )
    return result, ledger


def _billed(result, device):
    return [
        sum(t.traffic.get(key, 0) for t in result.tenants
            if t.device == device)
        for key in KEYS
    ]


CASES = {
    "plain": dict(tail=False),
    "crash": dict(
        tail=False, faults=[DeviceCrash(0, after_ops=9, torn=True)],
    ),
    "tail": dict(tail=True),
    "crash+tail": dict(
        tail=True, faults=[DeviceCrash(0, after_ops=9, torn=True)],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tenants_are_billed_the_drain_minus_recovery_and_tails(
    monkeypatch, case
):
    result, ledger = _serve_with_ledger(monkeypatch, **CASES[case])
    assert sorted(ledger.drain) == [0, 1]
    for device in (0, 1):
        expected = [
            total - rec - tail
            for total, rec, tail in zip(
                ledger.drain[device],
                ledger.recovery[device],
                ledger.tail[device],
            )
        ]
        assert _billed(result, device) == expected, (case, device)
    # The cases exercise what they name.
    assert any(ledger.recovery[0]) == ("crash" in case)
    assert any(ledger.tail[0]) == ("tail" in case)
    assert any(ledger.drain[1]) and not any(ledger.recovery[1])
    if "tail" in case:
        by_name = {t.spec["name"]: t for t in result.tenants}
        assert by_name["tail"].dropped >= 1
        # ... and ops on device 0 were dispatched after the tail ran.
        assert by_name["a"].ops + by_name["b"].ops > by_name["tail"].ops
