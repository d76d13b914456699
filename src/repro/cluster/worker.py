"""The shard routine of the serving layer, and its two transports.

A cluster run is ``W`` shards, each owning a disjoint set of devices end
to end.  :func:`run_shard` is the only code that serves: it builds the
backend, sets up and drains the tenants placed on its devices, samples
their telemetry and returns a picklable :class:`ShardResult` fragment
for the reducer (:mod:`repro.cluster.merge`).  ``workers=0`` is one
shard that owns every device, called directly in the caller's process;
``workers=N`` is ``min(N, n_devices)`` shards, one spawned OS process
each (:func:`run_shard_workers`).  The routine cannot tell the two
apart.

Shards never share memory.  Tenants never span devices, so the only
cross-shard couplings are two scalar barriers, and the routine reaches
both through the ``exchange(tag, local) -> global`` callable it is
handed — the identity in-process, a pipe round trip through the parent's
``max()`` in a worker:

1. **setup barrier** (``"setup"``) — the shard's post-setup clock
   maximum out, the cluster-wide epoch ``t0`` back, adopted via
   :meth:`~repro.sim.clock.VirtualClock.sync_to`;
2. **end barrier** (``"ran"``) — the shard's post-drain elapsed time
   out, the cluster-wide run end ``t_end`` back, at which every shard
   closes its telemetry series.

Between the barriers the per-shard event streams are causally
independent (the property the CONC001–003 lint passes certify).  Every
shard builds *every* device stack, owned or not: mkfs advances clock
thread 0 by float accumulation (23637.0, 47274.00000000001, 70911.0,
94547.99999999997 after one to four devices), so a shard that skipped
un-owned devices could not reproduce ``t0`` bit-exactly — and there is
nothing to win, a stack costs 1–2 ms of host time to build.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_readable
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.analysis import fssan
from repro.faults.plan import plan_by_device
from repro.sim.clock import SEC, VirtualClock
from repro.stats.traffic import LatencyRecorder
from repro.telemetry import sampler as telem
from repro.trace import tracer as trace
from repro.trace.tracer import Tracer

from repro.cluster.kernel import (
    DeviceFault,
    TenantRT,
    device_call_snapshot,
    gen_arrivals,
    run_device_drain,
    run_orphan_crash,
    sanity,
    setup_tenant,
)
from repro.cluster.result import TenantResult
from repro.cluster.sched import make_scheduler
from repro.cluster.shard import ShardedBackend

if TYPE_CHECKING:
    from repro.cluster.config import ServeConfig


@dataclass(frozen=True)
class ShardTask:
    """One shard's assignment, picklable for spawn."""

    config: "ServeConfig"
    worker_id: int
    owned_devices: Tuple[int, ...]
    #: the device of every tenant of the cluster, by global index; the
    #: shard sets up and serves only those on its owned devices
    placement: Tuple[int, ...]
    #: the caller's trace.AUTO decision; a worker must not re-read the
    #: environment (the caller's flag may have been toggled in-process)
    auto_trace: bool


@dataclass
class ShardResult:
    """One shard's fragment of the cluster run, picklable."""

    worker_id: int
    #: the two barrier values, identical in every fragment of a run
    t0: float
    t_end: float
    #: host wall-clock of this shard's drain: first ``run_device_drain``
    #: entry to the last drain / orphan-crash return
    wall_s: float
    #: (global index, result) for every tenant this shard served
    tenants: List[Tuple[int, TenantResult]] = field(default_factory=list)
    device_summaries: Dict[int, Dict] = field(default_factory=dict)
    #: recovery records of owned faulted devices (live wall_s included)
    recovery: Dict[int, Dict] = field(default_factory=dict)
    #: telemetry fragments of owned devices (None when sampling is off)
    telemetry_rows: Optional[List[Dict]] = None
    telemetry_outages: Optional[List[Dict]] = None
    #: per-device metrics registries (auto-trace runs only)
    metrics: Dict[int, object] = field(default_factory=dict)
    #: the span-keeping tracer of a ``traced=True`` run; such a run is
    #: one in-process shard, so this never crosses a pipe
    tracer: Optional[Tracer] = None
    #: per-device dispatch-log fragments (None unless kept)
    dispatch_log: Optional[Dict[int, List[Dict]]] = None
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    layer_calls: Dict[str, int] = field(default_factory=dict)


def run_shard(
    task: ShardTask, exchange: Callable[[str, float], float]
) -> ShardResult:
    """Serve the tenants on ``task.owned_devices`` (see module docstring)."""
    cfg = task.config
    fault_for = plan_by_device(cfg.faults)
    clock = VirtualClock(len(cfg.tenants))
    with trace.seam(cfg.traced or task.auto_trace):
        backend = ShardedBackend(
            cfg.fs_name,
            cfg.n_devices,
            clock,
            geometry=cfg.geometry,
            timing=cfg.timing,
            log_bytes=cfg.log_bytes,
            device_cache_bytes=cfg.device_cache_bytes,
            page_cache_pages=cfg.page_cache_pages,
            devcache=cfg.devcache,
            queue_depth=cfg.queue_depth,
            fault_devices=fault_for,
        )
        owned = sorted(task.owned_devices)
        # -------- setup phase (un-measured, global index order) -------- #
        runtime: List[TenantRT] = []
        by_device: Dict[int, List[TenantRT]] = {dev: [] for dev in owned}
        for index, (spec, dev) in enumerate(zip(cfg.tenants, task.placement)):
            if dev in by_device:
                tn = setup_tenant(
                    backend, clock, index, spec, dev, dev in fault_for,
                    cfg.seed,
                )
                runtime.append(tn)
                by_device[dev].append(tn)
        # Setup barrier — the measurement epoch: every timeline of every
        # shard jumps to t0 and every shard's traffic stats restart at zero.
        t0 = exchange("setup", clock.elapsed_ns)
        clock.sync_to(t0)
        backend.reset_epoch()
        fault_rt: Dict[int, DeviceFault] = {}
        for dev in owned:
            fspec = fault_for.get(dev)
            if fspec is not None:
                frt = DeviceFault(spec=fspec, injector=backend.injectors[dev])
                if fspec.at_s is not None:
                    frt.t_crash = t0 + fspec.at_s * SEC
                fault_rt[dev] = frt
        # Open-loop Poisson arrivals, one independent stream per tenant.
        for tn in runtime:
            gen_arrivals(tn, cfg.seed, t0)
        scheds = {
            dev: make_scheduler(cfg.sched, by_device[dev], cfg.quantum_ns)
            for dev in owned
        }
        cluster_latency = LatencyRecorder()
        dispatch_log: Optional[Dict[int, List[Dict]]] = (
            {dev: [] for dev in owned} if cfg.keep_dispatch_log else None
        )
        sampler: Optional[telem.TelemetrySampler] = None
        if cfg.sample_every_ns is not None:
            sampler = telem.TelemetrySampler(t0, cfg.sample_every_ns)
            for dev in owned:
                sampler.add_device(
                    dev,
                    gauges=backend.devices[dev].gauges,
                    queue=backend.queues[dev],
                    tenants=by_device[dev],
                    stats=backend.stats[dev],
                    time_of=clock.time_of,
                )
        tracer = Tracer(clock, keep_spans=True) if cfg.traced else None
        #: per-device registries of an auto-trace run; the reducer merges
        #: them in device order so float accumulation never depends on W
        metrics_by_device: Dict[int, object] = {}
        calls0 = {
            dev: device_call_snapshot(backend.devices[dev]) for dev in owned
        }
        # ----------------------- measured phase ----------------------- #
        wall0 = time.perf_counter()
        if sampler is not None:
            telem.activate(sampler)
        try:
            with trace.activated(tracer) if tracer is not None \
                    else nullcontext():
                # Tenants never span devices, so a shard's devices drain one
                # after another on its clock.
                for dev in owned:
                    if by_device[dev]:
                        reg = run_device_drain(
                            clock, dev, by_device[dev], scheds[dev],
                            backend.queues[dev], backend.stats[dev],
                            cfg.max_queue, cluster_latency,
                            dispatch_log[dev]
                            if dispatch_log is not None else None,
                            backend.devices[dev], backend.filesystems[dev],
                            fault_rt.get(dev), cfg.outage_policy, cfg.seed,
                            tracer, task.auto_trace,
                        )
                        if reg is not None:
                            metrics_by_device[dev] = reg
                # A faulted device with no tenants still power-cycles, after
                # the populated devices drained (so its recovery work never
                # delays a tenant's timeline) and on thread 0, whose
                # post-drain time is exact here: the plan gives such devices
                # to the shard that serves tenant 0.
                for dev in owned:
                    if dev in fault_rt and not by_device[dev]:
                        reg = run_orphan_crash(
                            clock, dev, backend.devices[dev],
                            backend.filesystems[dev], backend.queues[dev],
                            backend.stats[dev], fault_rt[dev],
                            cfg.outage_policy, tracer, task.auto_trace,
                        )
                        if reg is not None:
                            metrics_by_device[dev] = reg
            if tracer is not None:
                tracer.close_all()
        finally:
            if sampler is not None:
                telem.deactivate()
        wall_s = time.perf_counter() - wall0
    # End barrier: every shard closes its series at the cluster's t_end
    # (equal-length series per device).
    t_end = exchange("ran", clock.elapsed_ns)
    if sampler is not None:
        for dev in owned:
            sampler.advance(dev, t_end)
    # Final queue-accounting audit, sanitizer or not: a broken invariant
    # here means the result's counters are lies.
    for tn in runtime:
        with fssan.sanitized():
            sanity(tn)
    layer_calls: Dict[str, int] = {}
    for dev in owned:
        snap = device_call_snapshot(backend.devices[dev])
        for key, v in snap.items():
            layer_calls[key] = layer_calls.get(key, 0) + v - calls0[dev][key]
    if cfg.unmount:
        # Before the summaries, which then count the final flush.
        backend.unmount()
    return ShardResult(
        worker_id=task.worker_id,
        t0=t0,
        t_end=t_end,
        wall_s=wall_s,
        tenants=[
            (
                tn.index,
                TenantResult(
                    spec=tn.spec.to_json(),
                    device=task.placement[tn.index],
                    ops=tn.served,
                    submitted=tn.submitted(),
                    rejected=tn.rejected,
                    dropped=tn.dropped,
                    slo_violations=tn.slo_violations,
                    latency=tn.latency,
                    traffic=tn.traffic(),
                    lost_to_crash=tn.lost_to_crash,
                    outage_rejected=tn.outage_rejected,
                    slo_violations_outage=tn.slo_violations_outage,
                ),
            )
            for tn in runtime
        ],
        device_summaries={
            dev: backend.device_summary(dev) for dev in owned
        },
        recovery={
            dev: frt.record
            for dev, frt in sorted(fault_rt.items())
            if frt.record is not None
        },
        telemetry_rows=sampler.rows if sampler is not None else None,
        telemetry_outages=sampler.outages if sampler is not None else None,
        metrics=metrics_by_device,
        tracer=tracer,
        dispatch_log=dispatch_log,
        latency=cluster_latency,
        layer_calls=layer_calls,
    )


# ---------------------------------------------------------------------- #
# the process transport
# ---------------------------------------------------------------------- #

def shard_worker_main(conn, task: ShardTask) -> None:
    """Child-process entry: run the shard, ship the fragment."""

    def exchange(tag: str, local: float) -> float:
        conn.send((tag, local))
        return conn.recv()

    try:
        conn.send(("result", run_shard(task, exchange)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def run_shard_workers(
    tasks: List[ShardTask],
) -> Tuple[float, List[ShardResult]]:
    """Run one process per task; the parent is the ``max()`` of both
    barriers.

    Returns ``(wall_s, results)`` where ``wall_s`` measures only the
    parallel drain (t0 broadcast to the last "ran") — process spawn,
    device construction and tenant setup are excluded, like the bench
    harness excludes setup from measured walls.
    """
    ctx = mp.get_context("spawn")
    procs: List = []
    conns: List = []
    try:
        for task in tasks:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, task),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        _broadcast(conns, max(_gather(conns, procs, "setup")))
        wall0 = time.perf_counter()
        t_end = max(_gather(conns, procs, "ran"))
        wall_s = time.perf_counter() - wall0
        _broadcast(conns, t_end)
        results = _gather(conns, procs, "result", last=True)
        for proc in procs:
            proc.join(timeout=30)
        return wall_s, results
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


def _gather(
    conns: List, procs: List, expect: str, last: bool = False
) -> List:
    """One barrier: every worker's ``expect`` payload, in worker order.

    The pipes are read as they turn readable, and a closed pipe counts:
    a worker that died is reported when it dies, not once the workers
    before it have sent.  Until the ``last`` barrier that includes the
    workers that have sent already — they are waiting for the answer,
    so their pipe turns readable again only by closing."""
    payloads: Dict[int, object] = {}
    while len(payloads) < len(conns):
        owed = [c for i, c in enumerate(conns) if i not in payloads]
        for conn in wait_readable(owed if last else conns):
            i = conns.index(conn)
            payloads[i] = _recv(conn, procs[i], expect)
    return [payloads[i] for i in range(len(conns))]


def _broadcast(conns: List, value: float) -> None:
    """A barrier's answer to every worker.  One that died since it
    reported cannot take it: the next barrier names it."""
    for conn in conns:
        try:
            conn.send(value)
        except BrokenPipeError:
            pass


def _recv(conn, proc, expect: str):
    try:
        tag, payload = conn.recv()
    except (EOFError, ConnectionResetError):  # reset: died with mail unread
        proc.join(timeout=5)  # reap it, so the exit code is known
        raise RuntimeError(
            f"shard worker pid={proc.pid} died before sending "
            f"{expect!r} (exit code {proc.exitcode})"
        ) from None
    if tag == "error":
        raise RuntimeError(f"shard worker failed:\n{payload}")
    if tag != expect:
        raise RuntimeError(
            f"shard protocol violation: expected {expect!r}, got {tag!r}"
        )
    return payload
