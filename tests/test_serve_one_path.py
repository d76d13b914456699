"""One serving path: every worker count runs the same shard routine.

``workers=0`` is one in-process shard through the routine the worker
processes run, reduced by the same reducer — so "serial == workers"
compares one routine with itself and proves nothing on its own.  The
bytes are therefore pinned: the ``serve/*`` rows of tests/test_pins.py
hold the result document, the telemetry series, the dispatch log and the
trace JSONL of each shape to one golden at every worker count, and
(a) checks them.  (b) pins the error contract (one validation, before
anything is built or spawned), (c) the process edge (a killed or a
raising worker), (d) the structure itself.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro.cluster
from repro.cluster import TenantSpec, serve_cluster
from repro.core.bytefs import build_stack
from repro.faults.plan import DeviceCrash
from repro.ssd.firmware.baseline_fw import BaselineFirmwareConfig
from repro.ssd.firmware.bytefs_fw import ByteFSFirmwareConfig
from tests.conftest import SMALL_GEOMETRY
from tests.test_pins import WORKERS, check, rows, serve_shape

# ---------------------------------------------------------------------- #
# (a) documents, series, logs and traces: the serve rows of the pin table
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("name,workers", [
    (name, w) for name in rows("serve/") for w in WORKERS[f"serve/{name}"]
])
def test_artefacts_match_parent_commit(pytestconfig, name, workers):
    check(pytestconfig, f"serve/{name}", workers)


# ---------------------------------------------------------------------- #
# (b) the error contract: one validation, before anything runs
# ---------------------------------------------------------------------- #

def _specs(**kw):
    base = dict(workload="synthetic", n_ops=5, rate_ops_s=200_000.0)
    return [TenantSpec(name=f"t{i}", device=i, **{**base, **kw})
            for i in range(2)]


#: name -> (tenants, serve_cluster keywords, a fragment of the message)
BAD_CONFIGS = {
    "no tenants": ([], {}, "at least one tenant"),
    "duplicate tenants": (_specs() + _specs(), {}, "must be unique"),
    "outage policy": (_specs(), dict(outage_policy="panic"),
                      "unknown outage policy"),
    "fault on a missing device": (
        _specs(), dict(faults=[DeviceCrash(7, after_ops=1)]), "device 7"),
    "two faults on one device": (
        _specs(),
        dict(faults=[DeviceCrash(0, after_ops=1), DeviceCrash(0, at_s=0.1)]),
        "more than one planned crash"),
    "scheduler name": (_specs(), dict(sched="deadline"), "unknown scheduler"),
    "scheduler quantum": (_specs(), dict(quantum_ns=0.0), "quantum"),
    "placement pin": (_specs() + [TenantSpec(name="far", device=5)], {},
                      "pinned to device 5"),
    "no devices": (_specs(), dict(n_devices=0), "at least one device"),
    "queue depth": (_specs(), dict(queue_depth=0), "queue depth"),
    "file system": (_specs(), dict(fs_name="zfs"), "unknown file system"),
    "tenant workload": (_specs(workload="nope"), {},
                        "unknown tenant workload"),
    "unmirrorable workload on a faulted device": (
        _specs(workload="varmail"),
        dict(faults=[DeviceCrash(1, after_ops=1)]), "oracle"),
    "arrival rate": (_specs(rate_ops_s=0.0), {}, "positive rate_ops_s"),
    "sampling interval": (_specs(), dict(sample_every_ns=0.0),
                          "sample_every_ns must be positive"),
    # (these two used to pass validation and die building the stack: a
    # ValueError with workers=0, a child traceback with workers=2)
    "empty page cache": (_specs(), dict(page_cache_pages=0),
                         "page_cache_pages must be >= 1"),
    "no room for the firmware log": (
        _specs(), dict(log_bytes=0), "log_bytes must be >= 128"),
    "device cache under four pages": (
        _specs(), dict(fs_name="ext4", device_cache_bytes=100),
        "device_cache_bytes must be >= 16384"),
}


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail the test if a shard is run, in this process or another."""
    def ran(*_a, **_k):
        raise AssertionError("a rejected configuration reached a shard")
    monkeypatch.setattr(repro.cluster.serve, "run_shard", ran)
    monkeypatch.setattr(repro.cluster.serve, "run_shard_workers", ran)


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_is_one_valueerror_for_every_worker_count(
    name, nothing_runs
):
    tenants, kw, fragment = BAD_CONFIGS[name]
    seen = set()
    for workers in (0, 2):
        with pytest.raises(ValueError, match=fragment) as exc:
            serve_cluster(tenants, **{
                "n_devices": 2, "geometry": SMALL_GEOMETRY, **kw,
                "workers": workers,
            })
        seen.add((type(exc.value), str(exc.value).splitlines()[0]))
    assert len(seen) == 1, seen


def test_negative_workers_rejected(nothing_runs):
    with pytest.raises(ValueError, match="workers must be >= 0"):
        serve_cluster(_specs(), n_devices=2, workers=-1)


def test_log_minimum_is_the_smallest_log_the_firmware_builds_with():
    smallest = ByteFSFirmwareConfig.MIN_LOG_BYTES
    build_stack("bytefs", geometry=SMALL_GEOMETRY, log_bytes=smallest)
    with pytest.raises(ValueError, match="log_bytes must be >= 128"):
        build_stack("bytefs", geometry=SMALL_GEOMETRY, log_bytes=smallest - 1)


def test_cache_minimum_is_the_smallest_cache_the_firmware_builds_with():
    pages = BaselineFirmwareConfig.MIN_CACHE_PAGES
    smallest = pages * SMALL_GEOMETRY.page_size
    build_stack("ext4", geometry=SMALL_GEOMETRY, device_cache_bytes=smallest)
    with pytest.raises(ValueError, match="device_cache_bytes must be >= "):
        build_stack(
            "ext4", geometry=SMALL_GEOMETRY, device_cache_bytes=smallest - 1
        )


# ---------------------------------------------------------------------- #
# (c) the process edge: a worker that dies, a worker that raises
# ---------------------------------------------------------------------- #

def kill_at_setup(monkeypatch, which):
    """SIGKILL shard worker ``which`` (spawn order) the moment the
    parent has read its ``"setup"`` through ``worker._recv``.

    A protocol event, not a wall-clock offset: the victim has sent
    ``"setup"`` and is blocked on the answer, so it is between the two
    barriers whatever the host's speed, and no worker can have sent
    ``"ran"`` (t0 is broadcast only once every ``"setup"`` is in).
    Returns ``killed`` (``[(pid, monotonic time)]``) and ``read``, the
    ``(worker, tag)`` messages the parent got, in order."""
    from repro.cluster import worker

    real_recv = worker._recv
    pids, killed, read = [], [], []

    def recv(conn, proc, expect):
        payload = real_recv(conn, proc, expect)
        if not pids:  # first read: every worker has been spawned
            pids.extend(p.pid for p in sorted(
                multiprocessing.active_children(),
                key=lambda p: int(p.name.rsplit("-", 1)[1]),
            ))
        read.append((pids.index(proc.pid), expect))
        if not killed and read[-1] == (which, "setup"):
            os.kill(proc.pid, signal.SIGKILL)
            killed.append((proc.pid, time.monotonic()))
        return payload

    monkeypatch.setattr(worker, "_recv", recv)
    return killed, read


def test_killed_worker_is_a_bounded_runtime_error(monkeypatch):
    """SIGKILL one shard worker between the barriers: ``serve_cluster``
    names the pid and exit code, promptly, and leaves no live child
    behind."""
    assert not multiprocessing.active_children()
    killed, _ = kill_at_setup(monkeypatch, 0)
    long_run = [
        TenantSpec(name=f"t{i}", workload="mixed", n_ops=20_000,
                   rate_ops_s=200_000.0, device=i % 2)
        for i in range(4)
    ]
    t_start = time.monotonic()
    with pytest.raises(RuntimeError) as exc:
        serve_cluster(long_run, n_devices=2, workers=2)
    elapsed = time.monotonic() - t_start
    assert killed
    assert f"pid={killed[0][0]}" in str(exc.value)
    assert f"exit code {-signal.SIGKILL}" in str(exc.value)
    assert elapsed < 30, f"took {elapsed:.1f} s to notice a dead worker"
    assert not multiprocessing.active_children()


def test_worker_death_is_noticed_when_it_happens_not_in_worker_order(
    monkeypatch,
):
    """SIGKILL worker 1 while worker 0 has several seconds of work ahead
    of it: every barrier watches every pipe, so the death is reported
    within ~2 s of the kill and not when worker 0 next reports."""
    assert not multiprocessing.active_children()
    killed, read = kill_at_setup(monkeypatch, 1)
    # Device d is served by worker d % 2: two tenants on each of worker
    # 0's eight devices, the victim's one tenant on device 1.  Worker 0
    # is owed "ran" when the kill lands (see kill_at_setup) and has its
    # whole drain, and most likely its setup, still to do.
    uneven = [
        TenantSpec(name=f"t{i}", workload="mixed", n_ops=20_000,
                   rate_ops_s=200_000.0, device=device)
        for i, device in enumerate(tuple(range(0, 16, 2)) * 2 + (1,))
    ]
    with pytest.raises(RuntimeError) as exc:
        serve_cluster(uneven, n_devices=16, workers=2)
    noticed = time.monotonic()
    assert killed
    pid, killed_at = killed[0]
    assert f"pid={pid}" in str(exc.value)
    assert f"exit code {-signal.SIGKILL}" in str(exc.value)
    assert (0, "ran") not in read, read  # not once worker 0 had drained
    assert noticed - killed_at < 2.0, (
        f"took {noticed - killed_at:.1f} s to notice a dead worker"
    )
    assert not multiprocessing.active_children()


def test_a_barrier_watches_the_workers_that_have_reported_too():
    """The two orders a process-level kill cannot pin down: a worker
    that dies *after* it reported, while the barrier waits for a slower
    one, is named at once; one that has sent its ``"result"`` exits, and
    that is no death; and an answer broadcast to a worker that is gone,
    or that dies before reading it, is the next barrier's to report."""
    from types import SimpleNamespace

    from repro.cluster.worker import _broadcast, _gather

    def pipes():
        ends = [multiprocessing.Pipe() for _ in range(2)]
        procs = [SimpleNamespace(pid=100 + i, exitcode=-9,
                                 join=lambda timeout: None) for i in (0, 1)]
        return [e[0] for e in ends], [e[1] for e in ends], procs

    conns, workers, procs = pipes()
    workers[1].send(("setup", 2.0))
    workers[1].close()  # reported, then died; worker 0 is still setting up
    with pytest.raises(RuntimeError, match=r"pid=101 died .*exit code -9"):
        _gather(conns, procs, "setup")

    conns, workers, procs = pipes()
    workers[1].send(("result", "r1"))
    workers[1].close()  # reported its result and exited
    late = threading.Timer(0.2, workers[0].send, [("result", "r0")])
    late.start()
    assert _gather(conns, procs, "result", last=True) == ["r0", "r1"]
    late.join(timeout=5)

    # Dead before the answer is sent (EPIPE), or with it unread
    # (ECONNRESET at the next read): both are that worker's death.
    for dies_first in (True, False):
        conns, workers, procs = pipes()
        workers[0].send(("ran", 1.0))
        workers[1].send(("ran", 3.0))
        assert _gather(conns, procs, "ran") == [1.0, 3.0]
        if dies_first:
            workers[0].close()
        _broadcast(conns, 3.0)
        workers[0].close()
        assert workers[1].recv() == 3.0
        with pytest.raises(RuntimeError, match="pid=100 died"):
            _gather(conns, procs, "result", last=True)


def test_raising_worker_surfaces_its_traceback():
    # Valid parameters, but the tenants' file sets do not fit a 1 MB
    # device: setup raises NoSpace inside the shard.
    from repro.fs.errors import NoSpace
    from repro.nand.geometry import FlashGeometry

    tiny = FlashGeometry(n_channels=2, ways_per_channel=1, blocks_per_way=8,
                         pages_per_block=16, page_size=4096)
    tenants = [TenantSpec(name=f"t{i}", workload="heavy", n_ops=5, device=i)
               for i in range(2)]
    with pytest.raises(NoSpace):
        serve_cluster(tenants, n_devices=2, geometry=tiny)
    with pytest.raises(RuntimeError, match="shard worker failed") as exc:
        serve_cluster(tenants, n_devices=2, geometry=tiny, workers=2)
    text = str(exc.value)
    assert "Traceback (most recent call last)" in text
    assert "NoSpace" in text and "run_shard" in text
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------------- #
# (d) live-only fields, and the structure itself
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("workers", [0, 2])
def test_auto_trace_result_trace_is_none_for_every_worker_count(workers):
    res = serve_shape("auto-trace", workers)
    assert res.trace is None
    # ... the registries went into the series' layer rows instead
    assert any(row["scope"] == "layer" for row in res.telemetry.rows)
    assert res.wall_s > 0 and "wall_s" not in res.to_json()


def test_one_call_site_per_serving_step():
    """One shard routine and one reducer, shown structurally: each step
    of the serving sequence is called from exactly one place in
    ``repro.cluster``."""
    import ast

    steps = ("ShardedBackend", "setup_tenant", "gen_arrivals",
             "run_device_drain", "run_orphan_crash", "TenantResult",
             "ClusterRunResult")
    sites = {name: [] for name in steps}
    for path in sorted(Path(repro.cluster.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in sites:
                    sites[node.func.id].append(path.name)
    assert sites == {
        **{name: ["worker.py"] for name in steps},
        "ClusterRunResult": ["merge.py"],
    }
