"""The per-shard dispatch kernel of the serving layer.

One :func:`serve_device` call drains one device shard's tenants to
completion on the shared virtual clock.  It has one caller, the shard
routine (:func:`repro.cluster.worker.run_shard`), which runs in this
process for ``--workers 0`` and in one OS process per shard group for
``--workers N``.  The dispatch semantics are documented on
:mod:`repro.cluster.serve`; this module is the mechanism.

**One frame per decision.**  One pass of :func:`serve_device`'s loop
makes a whole decision in the loop's own frame, with no helper call of
its own: (1) peek at the ready heap for the earliest dispatchable
request and take the admission queue's earliest-free slot, which gives
the decision instant ``t_dec``; (2) pump every arrival up to ``t_dec``
through admission control; (3) ask the scheduler — only through
``Scheduler.pick``/``release`` — which backlogged tenant goes next, and
when it may start; (4) grant it the slot; (5) run its next op on its own
clock thread; (6) bill it: the slot's busy time, the traffic its op
moved, its latency (one ``LatencyRecorder.record_pair`` for the op and
``ALL_OPS``), its SLO, and ``Scheduler.on_dispatch``/``charge``.  The
earliest-free slot is chosen once and kept until a completion or an
outage moves a slot's timeline.  A non-work-conserving hold (step 3
sees a release time past the start) pumps the earliest arrival before
the hold ends and decides again.

**O(1) idle-time skip.**  The kernel never scans tenants to find the
next decision instant.  Two lazy min-heaps bound the next event:

* a *ready heap* of ``(r, tenant_index)`` where ``r = max(head-of-queue
  or next-unpumped-arrival, client-thread time)`` — the earliest
  instant the tenant could dispatch;
* an *arrivals heap* of ``(next_arrival, tenant_index)`` driving
  targeted arrival pumping (and the hold-vs-next-arrival race).

Both follow the :meth:`repro.sim.clock.VirtualClock.next_thread`
discipline: every per-tenant quantity above is non-decreasing over the
run (queues carry sorted arrival times, client threads only move
forward, admission rejections only advance the arrival cursor), so a
stale top entry *under*-estimates its tenant and is revalidated in
place on pop.  An idle stretch of virtual time — every tenant's next
arrival far in the future — costs one heap peek instead of a scan per
tenant, and each heap holds at most one entry per tenant.

**Once-per-op traffic totals.**  A tenant is billed the bytes its op
moved: the device's six traffic totals after the op minus the totals
before it.  The totals are taken once per op — the *after* of one op is
the *before* of the next — and re-taken wherever the device is touched
between ops, so that traffic is billed to nobody: after
:func:`crash_and_recover` (recovery reads and replays) and after a
generator that did I/O past its last ``yield`` raised ``StopIteration``.
That is the one attribution rule; there is no slower exact variant.

The kernel also owns the runtime state the loop mutates
(:class:`TenantRT`, :class:`DeviceFault`), the crash/recovery protocol
(:func:`crash_and_recover`) and the building blocks the shard routine
strings together (:func:`setup_tenant`, :func:`gen_arrivals`,
:func:`run_device_drain`, :func:`run_orphan_crash`).  Input validation
is not here: :func:`repro.cluster.serve.validate` has rejected every
bad parameter before the first of them is called.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import repro.faults as faults
from repro.analysis import fssan
from repro.faults.injector import FaultInjector
from repro.sim.clock import MSEC, SEC, VirtualClock
from repro.sim.rng import make_rng
from repro.stats.traffic import Direction, LatencyRecorder, TrafficStats
from repro.telemetry import sampler as telem
from repro.trace import tracer as trace
from repro.trace.tracer import Tracer

from repro.cluster.result import ALL_OPS
from repro.cluster.sched import AdmissionQueue, Scheduler
from repro.cluster.tenant import CRASHED, TenantSpec, make_tenant_workload

if TYPE_CHECKING:
    from repro.faults.oracle import OracleFS
    from repro.faults.plan import DeviceCrash

_INF = float("inf")

# (Module constants: an enum member read off its class costs more than
# a global, and the totals read one per traffic key, once per op.)
_WRITE = Direction.WRITE
_READ = Direction.READ

_TRAFFIC_KEYS = (
    "host_write", "host_read", "flash_write", "flash_read",
    "app_write", "app_read",
)


@dataclass
class TenantRT:
    """Mutable per-tenant serving state."""

    index: int                       # global index == clock thread id
    spec: TenantSpec
    gen: object                      # the workload's op generator
    arrivals: List[float]            # absolute arrival times (ns)
    next_i: int = 0                  # first arrival not yet pumped
    queue: deque = field(default_factory=deque)
    deficit: float = 0.0             # DRR bookkeeping
    served: int = 0
    rejected: int = 0
    dropped: int = 0
    lost_to_crash: int = 0           # in flight when the shard lost power
    outage_rejected: int = 0         # rejections attributed to an outage
    slo_violations: int = 0
    slo_violations_outage: int = 0   # violations overlapping the outage
    done: bool = False               # workload generator exhausted
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    #: bytes this tenant's ops moved, in ``_TRAFFIC_KEYS`` order
    moved: List[int] = field(default_factory=lambda: [0] * len(_TRAFFIC_KEYS))
    #: namespace view and oracle mirror (faulted shards only)
    ns: Optional[object] = None
    oracle: Optional[OracleFS] = None
    #: arrivals inside [reject_from, reject_to) bounce ("reject" policy)
    reject_from: float = _INF
    reject_to: float = -_INF

    def submitted(self) -> int:
        return self.next_i

    def traffic(self) -> Dict[str, int]:
        """``moved`` by key; empty until an op of this tenant ran."""
        if not (self.served or self.lost_to_crash):
            return {}
        return dict(zip(_TRAFFIC_KEYS, self.moved))

    def finish(self) -> None:
        """Workload exhausted: abandon backlog and future arrivals."""
        self.done = True
        self.dropped += len(self.queue)
        self.queue.clear()
        del self.arrivals[self.next_i:]


def _traffic_totals(stats: TrafficStats) -> Tuple[float, ...]:
    hw = hr = 0
    for (_k, d, _i), n in stats.host_ssd.items():
        if d is _WRITE:
            hw += n
        else:
            hr += n
    fw = fr = 0
    for (_k, d), n in stats.flash.items():
        if d is _WRITE:
            fw += n
        else:
            fr += n
    app = stats.app
    return hw, hr, fw, fr, app.get(_WRITE, 0), app.get(_READ, 0)


def sanity(tn: TenantRT) -> None:
    fssan.check_queue_accounting(
        tn.spec.name, tn.submitted(), tn.served, len(tn.queue),
        tn.rejected, tn.dropped, tn.lost_to_crash,
    )


@dataclass
class DeviceFault:
    """Mutable runtime state of one planned device crash."""

    spec: DeviceCrash
    injector: FaultInjector
    t_crash: float = _INF            # absolute trigger time (ns); inf = ops
    armed: bool = False              # injector armed, crash op pending
    done: bool = False               # power-cycled and recovered
    dispatched: int = 0              # grants on this device so far
    t_down: float = 0.0
    t_up: float = 0.0
    wall_s: float = 0.0              # measured host time in recovery
    record: Optional[Dict] = None    # the result document's entry

    def due(self, t_dec: float) -> bool:
        if self.spec.after_ops is not None:
            return self.dispatched >= self.spec.after_ops
        return t_dec >= self.t_crash


def crash_and_recover(
    clock: VirtualClock,
    device: int,
    device_obj,
    fs,
    tenants: List[TenantRT],
    queue: AdmissionQueue,
    sched: Optional[Scheduler],
    stats: TrafficStats,
    fault: DeviceFault,
    outage_policy: str,
    tracer: Optional[Tracer],
) -> None:
    """Power-cycle one shard and bring it back on the virtual timeline.

    Runs synchronously on the current clock thread, at the instant power
    dropped: device DRAM state replays from its power-loss log, the file
    system runs its crash-recovery path (journal replay / log scan), and
    the durability oracle then scrubs every mirrored tenant namespace —
    the scrub's reads cost virtual time like a real verification pass,
    so recovery time includes it.  Other tenants see the outage through
    the admission queue: every slot is busy until recovery completes.
    """
    inj = fault.injector
    fired = inj.fired
    inj.disarm()
    t_down = clock.now
    smp = telem.active() if telem.ENABLED else None
    if smp is not None:
        # Pre-crash boundaries sample with up=1 before the window opens.
        smp.advance(device, t_down)
    stats.bump_fault("fault_power_cycles")
    if trace.ENABLED:
        trace.event(
            "cluster", "crash", device=device,
            site=fired.label if fired is not None else None,
        )
    span = (
        trace.begin("cluster", "recovery", device=device)
        if tracer is not None else None
    )
    wall0 = time.perf_counter()
    device_obj.power_fail()
    fs.crash()
    fw = fs.remount()
    checked: List[str] = []
    errors: Dict[str, List[str]] = {}
    for tn in sorted(tenants, key=lambda t: t.index):
        if tn.oracle is None:
            continue
        checked.append(tn.spec.name)
        bad = tn.oracle.check(tn.ns)
        if bad:
            errors[tn.spec.name] = bad
    fault.wall_s = time.perf_counter() - wall0
    t_up = clock.now
    if span is not None:
        trace.end(span)
    fault.done = True
    fault.t_down = t_down
    fault.t_up = t_up
    queue.outage_until(t_up)
    if sched is not None:
        sched.on_outage(t_down, t_up)
    if outage_policy == "reject":
        for tn in tenants:
            tn.reject_from = t_down
            tn.reject_to = t_up
    if smp is not None:
        # Boundaries inside [t_down, t_up) emit up=0: the crash and the
        # recovery show up as gauge transitions in the series.
        smp.mark_outage(device, t_down, t_up)
    fault.record = {
        "device": device,
        "trigger": fault.spec.to_json(),
        "fired": (
            {
                "site": fired.site,
                "label": fired.label,
                "nbytes": fired.nbytes,
                "torn_bytes": fired.torn_bytes,
            }
            if fired is not None else None
        ),
        "t_down_ns": t_down,
        "t_up_ns": t_up,
        "virtual_ns": t_up - t_down,
        "wall_s": fault.wall_s,
        "fw": {k: fw[k] for k in sorted(fw)},
        "oracle": {
            "checked": checked,
            "clean": not errors,
            "errors": errors,
        },
    }


def serve_device(
    clock: VirtualClock,
    device: int,
    tenants: List[TenantRT],
    sched: Scheduler,
    queue: AdmissionQueue,
    stats: TrafficStats,
    max_queue: int,
    cluster_latency: LatencyRecorder,
    dispatch_log: Optional[List],
    tracer: Optional[Tracer],
    device_obj=None,
    fs=None,
    fault: Optional[DeviceFault] = None,
    outage_policy: str = "requeue",
    fault_seed: int = 0,
) -> None:
    """Drain one device's tenants to completion (see module docstring)."""
    times = clock.timelines
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    smp = telem.active() if telem.ENABLED else None
    by_index = {tn.index: tn for tn in tenants}
    slots = queue.slots
    #: tenants with a non-empty queue, keyed by global index
    backlog: Dict[int, TenantRT] = {
        tn.index: tn for tn in tenants if tn.queue
    }
    #: no arrival later than this has been pumped; while it is <= the
    #: decision instant, every backlogged head request has arrived
    pumped_to = -_INF
    # Any under-estimate is a valid lazy-heap entry; virtual time is >= 0.
    ready: List[Tuple[float, int]] = [(0.0, tn.index) for tn in tenants]
    arrivals_heap: List[Tuple[float, int]] = [
        (tn.arrivals[tn.next_i], tn.index)
        for tn in tenants if tn.next_i < len(tn.arrivals)
    ]
    heapq.heapify(ready)
    heapq.heapify(arrivals_heap)

    totals = _traffic_totals(stats)
    #: the earliest-free admission slot (the lowest-numbered on a tie),
    #: until a slot's timeline next moves
    slot = None
    #: step 3 held the pick: pump arrivals up to ``t_pump`` and re-decide
    held = False
    while True:
        if not held:
            # 1. The earliest dispatchable request across tenants: arrived
            # AND the tenant's (single-threaded) client is free again.  One
            # peek at the ready heap — idle virtual time costs O(1), not a
            # tenant scan.  Lazy revalidation: a top entry matching its
            # tenant's live value is the true minimum, because every other
            # entry underestimates; a tenant with neither a queued nor an
            # unpumped arrival never dispatches again and leaves the heap.
            while ready:
                t_req, idx = ready[0]
                tn = by_index[idx]
                if tn.queue:
                    live = tn.queue[0]
                elif tn.next_i < len(tn.arrivals):
                    live = tn.arrivals[tn.next_i]
                else:
                    heappop(ready)
                    continue
                avail = times[idx]
                if avail > live:
                    live = avail
                if live == t_req:
                    break
                heapreplace(ready, (live, idx))
            else:
                break  # the heap ran dry: the drain is over
            if slot is None:
                slot = slots[0]
                for cand in slots:
                    if cand.busy_until < slot.busy_until:
                        slot = cand
            t_free = slot.busy_until
            t_dec = t_req if t_req > t_free else t_free
            if smp is not None:
                # Pull-based sampling: emit every boundary crossed since
                # the last decision, stamped with the boundary's virtual
                # time.
                smp.advance(device, t_dec)
            # Fault trigger check at the decision instant: the next
            # dispatch is the one in flight when power drops.
            if fault is not None and not fault.done and not fault.armed:
                if fault.due(t_dec):
                    fault.injector.arm_next(
                        torn=fault.spec.torn, seed=fault_seed
                    )
                    fault.armed = True
            t_pump = t_dec
        # 2. Pump arrivals (admission control) up to ``t_pump``, tenant by
        # tenant in global arrival order: admission reads only the
        # tenant's own queue and reject window, so this leaves the state
        # a pump-every-tenant scan would.  The arrivals heap revalidates
        # lazily, like the ready heap.
        if t_pump > pumped_to:
            pumped_to = t_pump
        while arrivals_heap:
            a, idx = arrivals_heap[0]
            tn = by_index[idx]
            arrivals = tn.arrivals
            i = tn.next_i
            n = len(arrivals)
            if i >= n:
                heappop(arrivals_heap)
                continue
            live = arrivals[i]
            if live != a:
                heapreplace(arrivals_heap, (live, idx))
                continue
            if a > t_pump:
                break
            tq = tn.queue
            while i < n and arrivals[i] <= t_pump:
                a = arrivals[i]
                if tn.reject_from <= a < tn.reject_to:
                    # Arrived while the shard was down (policy "reject").
                    tn.rejected += 1
                    tn.outage_rejected += 1
                elif len(tq) >= max_queue:
                    tn.rejected += 1
                else:
                    tq.append(a)
                i += 1
            tn.next_i = i
            if tq:
                backlog[idx] = tn
            if i < n:
                heapreplace(arrivals_heap, (arrivals[i], idx))
            else:
                heappop(arrivals_heap)
        if held:
            held = False
            continue
        eligible = backlog if pumped_to <= t_dec else {
            i: tn for i, tn in backlog.items() if tn.queue[0] <= t_dec
        }
        if not eligible:
            # The min-r tenant's arrival was rejected at the full queue;
            # recompute from the new state.
            continue
        # 3. Policy decision.  A tenant with an op still in flight stays
        # schedulable — its queued requests live in the device queue, not
        # the client — but its grant can only *start* once the in-flight
        # op completes (per-tenant request ordering).  Under FIFO this is
        # exactly head-of-line blocking: later arrivals from everyone
        # else wait behind a backlogged tenant's older requests.
        tn = sched.pick(eligible, t_dec)
        index = tn.index
        start = t_dec
        avail = times[index]
        if avail > start:
            start = avail
        rel = sched.release(tn, t_dec)
        if rel > start:
            # Non-work-conserving hold: if any arrival lands before the
            # hold ends, it may belong to an unthrottled tenant — pump to
            # it and re-decide.
            while arrivals_heap:
                a, idx = arrivals_heap[0]
                other = by_index[idx]
                if other.next_i >= len(other.arrivals):
                    heappop(arrivals_heap)
                    continue
                live = other.arrivals[other.next_i]
                if live == a:
                    break
                heapreplace(arrivals_heap, (live, idx))
            if arrivals_heap and arrivals_heap[0][0] < rel:
                t_pump = arrivals_heap[0][0]
                held = True
                continue
            start = rel
        arrival = tn.queue.popleft()
        if not tn.queue:
            del backlog[index]
        # 4. Admission: the earliest-free slot, waiting for it if busy.
        grant = slot.busy_until
        if start > grant:
            grant = start
        elif trace.ENABLED and grant > start:
            trace.note_wait(queue.group, grant - start, 0.0)
        if fault is not None:
            fault.dispatched += 1
        # 5. Dispatch: the tenant's client runs its next op from ``grant``.
        clock.switch(index)
        clock.advance_to(grant)
        root = (
            trace.begin("cluster", "op", tenant=tn.spec.name, device=device)
            if tracer is not None else None
        )
        if root is not None and grant > arrival:
            trace.note_wait(queue.group, grant - arrival, 0.0)
        try:
            op_name = next(tn.gen)
        except StopIteration:
            if root is not None:
                root.op = "drain"
                trace.end(root)
            tn.dropped += 1
            tn.finish()
            backlog.pop(index, None)
            # What the generator did after its last yield is nobody's op.
            totals = _traffic_totals(stats)
            if fssan.ENABLED:
                sanity(tn)
            continue
        end = clock.now
        if root is not None:
            root.op = op_name
            trace.end(root)
        # 6. Billing: the slot is busy for the op's whole [grant, end),
        # and the tenant is billed the traffic its op moved.
        slot.busy_until = end
        slot.total_busy_ns += end - grant
        slot = None
        before, totals = totals, _traffic_totals(stats)
        moved = tn.moved
        moved[0] += totals[0] - before[0]
        moved[1] += totals[1] - before[1]
        moved[2] += totals[2] - before[2]
        moved[3] += totals[3] - before[3]
        moved[4] += totals[4] - before[4]
        moved[5] += totals[5] - before[5]
        if dispatch_log is not None:
            dispatch_log.append({
                "device": device,
                "tenant": tn.spec.name,
                "op": op_name,
                "arrival": arrival,
                "begin": grant,
                "end": end,
            })
        if op_name == CRASHED:
            # The dispatched op was in flight when the shard lost power:
            # it was submitted but never served (lost to crash).
            tn.lost_to_crash += 1
        else:
            sched.on_dispatch(tn, grant)
            sched.charge(tn, end - grant)
            lat = end - arrival
            tn.served += 1
            tn.latency.record_pair(op_name, ALL_OPS, lat)
            if lat > tn.spec.slo_ms * MSEC:
                tn.slo_violations += 1
                if (
                    fault is not None and fault.done
                    and arrival < fault.t_up and end > fault.t_down
                ):
                    tn.slo_violations_outage += 1
        if fssan.ENABLED:
            sanity(tn)
        if op_name == CRASHED or (
            fault is not None and fault.armed and not fault.done
        ):
            # The recovery protocol runs right here, at t_down = `end`.
            # An armed crash op that completed without reaching a
            # device-visible mutation (e.g. a cache-hit read) drops power
            # at the op boundary instead, with nothing in flight.
            crash_and_recover(
                clock, device, device_obj, fs, tenants, queue, sched,
                stats, fault, outage_policy, tracer,
            )
            # Recovery traffic is nobody's op either.  (Its outage moved
            # the slots' timelines: ``slot`` was dropped above already.)
            totals = _traffic_totals(stats)
    if fault is not None and not fault.done:
        # The drain finished before the trigger was reached (or the
        # armed crash never saw another dispatch): the planned fault
        # still executes, as a between-ops power-off at drain end, so a
        # matrix cell always exercises the recovery path.
        tmax = max(times[tn.index] for tn in tenants)
        clock.switch(tenants[0].index)
        clock.advance_to(tmax)
        crash_and_recover(
            clock, device, device_obj, fs, tenants, queue, sched,
            stats, fault, outage_policy, tracer,
        )
    # The cluster-wide distribution is the union of the tenants': summaries
    # are computed over sorted samples, so folding once here gives the same
    # document as recording every op twice.
    for tn in tenants:
        cluster_latency.merge(tn.latency)


# ---------------------------------------------------------------------- #
# setup / drain building blocks of the shard routine
# ---------------------------------------------------------------------- #

def setup_tenant(
    backend,
    clock: VirtualClock,
    index: int,
    spec: TenantSpec,
    device: int,
    faulted: bool,
    seed: int,
) -> TenantRT:
    """Mount, prepare and oracle-mirror one tenant on its shard.

    Runs on the tenant's own clock thread.  Setups of tenants on
    different devices touch disjoint state (per-device file system,
    resources, stats) and distinct clock threads, so any subset of them
    replays identically in a worker process.
    """
    clock.switch(index)
    ns = backend.mount_namespace(spec, device)
    workload = make_tenant_workload(spec, seed)
    oracle: Optional[OracleFS] = None
    if faulted:
        # the oracle module loads here, at setup, on a faulted device only
        oracle = faults.OracleFS()
        workload.attach_oracle(oracle)
    workload.setup(ns)
    gen = workload.make_threads(ns)[0]
    return TenantRT(
        index=index, spec=spec, gen=gen, arrivals=[], ns=ns, oracle=oracle,
    )


def gen_arrivals(tn: TenantRT, seed: int, t0: float) -> None:
    """Seed the tenant's open-loop Poisson arrival stream from ``t0``."""
    rng = make_rng(seed, f"arrivals:{tn.spec.name}")
    t = t0
    rate = tn.spec.rate_ops_s
    for _ in range(tn.spec.n_ops):
        t += rng.expovariate(rate) * SEC
        tn.arrivals.append(t)


def _under_tracing(
    clock: VirtualClock,
    span_tracer: Optional[Tracer],
    auto_trace: bool,
    body: Callable[[Optional[Tracer]], None],
):
    """Run ``body(tracer)`` under the run's tracing regime.

    ``span_tracer`` (``traced=True`` runs) is the one span-keeping
    tracer the shard routine created and activated.  Otherwise, when
    ``auto_trace`` is set, ``body`` runs under its own metrics-only
    tracer and that tracer's registry is returned — one registry per
    device, merged by the reducer in device-index order, is why layer
    aggregates are bit-identical for every worker count.  With both off
    ``body`` gets ``None`` and nothing is traced.
    """
    if span_tracer is not None or not auto_trace:
        body(span_tracer)
        return None
    tr = Tracer(clock, keep_spans=False)
    with trace.activated(tr):
        body(tr)
    tr.close_all()
    return tr.metrics


def run_device_drain(
    clock: VirtualClock,
    device: int,
    tenants: List[TenantRT],
    sched: Scheduler,
    queue: AdmissionQueue,
    stats: TrafficStats,
    max_queue: int,
    cluster_latency: LatencyRecorder,
    dispatch_log: Optional[List],
    device_obj,
    fs,
    fault: Optional[DeviceFault],
    outage_policy: str,
    fault_seed: int,
    span_tracer: Optional[Tracer],
    auto_trace: bool,
):
    """Drain one device (tracing regimes: :func:`_under_tracing`)."""
    return _under_tracing(
        clock, span_tracer, auto_trace,
        lambda tr: serve_device(
            clock, device, tenants, sched, queue, stats, max_queue,
            cluster_latency, dispatch_log, tr, device_obj=device_obj,
            fs=fs, fault=fault, outage_policy=outage_policy,
            fault_seed=fault_seed,
        ),
    )


def run_orphan_crash(
    clock: VirtualClock,
    device: int,
    device_obj,
    fs,
    queue: AdmissionQueue,
    stats: TrafficStats,
    fault: DeviceFault,
    outage_policy: str,
    span_tracer: Optional[Tracer],
    auto_trace: bool,
):
    """Power-cycle a faulted device that served no tenants.

    Runs on thread 0 after the populated shards drained, so its
    recovery work never delays a tenant's timeline.
    """
    clock.switch(0)
    return _under_tracing(
        clock, span_tracer, auto_trace,
        lambda tr: crash_and_recover(
            clock, device, device_obj, fs, [], queue, None, stats,
            fault, outage_policy, tr,
        ),
    )


def device_call_snapshot(device_obj) -> Dict[str, int]:
    """Cumulative per-layer call counters of one device stack.

    Link and flash events, the "simulated events" a wall-clock harness
    (``perfbench/``) divides by host time on top of the tenant ops.
    """
    link = device_obj.link
    flash = device_obj.flash
    return {
        "link.mmio_read_lines": link.mmio_reads,
        "link.mmio_write_lines": link.mmio_writes,
        "link.dma_transfers": link.dma_transfers,
        "flash.reads": flash.reads,
        "flash.writes": flash.writes,
        "flash.erases": flash.erases,
    }
