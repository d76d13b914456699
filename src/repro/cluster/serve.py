"""The multi-tenant serving harness.

:func:`serve_cluster` runs N tenants against a
:class:`~repro.cluster.shard.ShardedBackend` under a pluggable I/O
scheduler and returns a
:class:`~repro.cluster.result.ClusterRunResult`.

Unlike the single-tenant bench harness (closed loop: each thread issues
its next op the instant the previous one returns), tenants here are
**open loop**: each tenant's requests arrive by a seeded Poisson process
at ``spec.rate_ops_s`` on the virtual timeline, independent of service
progress.  Arrivals queue per tenant; backlog is what gives the
scheduler real choices, and per-op latency = queueing delay + service
time, measured from *arrival* to completion — so a noisy neighbour's
backlog shows up in its victims' tail latencies, which is the effect the
DRR and token-bucket policies exist to bound.

Dispatch semantics (per device, deterministic):

1. The next *decision instant* ``t_dec`` is the earliest virtual time at
   which some tenant has a dispatchable request (arrived, client thread
   free) **and** the admission queue has a free slot.
2. Arrivals up to ``t_dec`` are pumped into per-tenant queues;
   admission control rejects arrivals beyond ``max_queue``.
3. The scheduler picks among eligible backlogged tenants; the grant
   starts at ``t_dec`` (work-conserving policies) or at the tenant's
   token-release time (token bucket), and the op runs on the tenant's
   own clock thread so device-level contention is shared with any
   overlapping ops admitted through other queue slots.

The dispatch loop itself lives in :mod:`repro.cluster.kernel`
(:func:`~repro.cluster.kernel.serve_device`): a per-shard event kernel
that finds each decision instant with lazy min-heaps instead of tenant
scans, so idle virtual time is skipped in O(1).

**One path, two transports** (``workers=N`` / ``repro serve
--workers``): :func:`serve_cluster` validates once, freezes the
parameters into a :class:`ServeConfig`, plans which shard owns which
device, runs the shards and reduces their fragments.  Device shards are
causally independent between two sync points (the post-setup epoch
``t0`` and the run end ``t_end``), so it does not matter where a shard
runs: ``workers=0`` (the default) is one shard owning every device,
called directly in this process; ``workers=K`` is ``min(K, n_devices)``
spawned processes.  Both execute :func:`repro.cluster.worker.run_shard`
and both are reduced by :func:`repro.cluster.merge.merge_shard_results`,
so the result and telemetry documents are byte-identical for every K —
pinned against the parent-commit digests in
``tests/test_serve_one_path.py``.  ``traced=True`` (span-keeping) keeps
one span tree on one tracer and therefore runs as the one in-process
shard; metrics-only auto tracing (``REPRO_TRACE=1``) works for every K.

**Faults under load** (``faults=`` / ``repro serve --fault``): a
:class:`~repro.faults.plan.DeviceCrash` powers one shard off mid-run —
at a virtual time or after N dispatched requests — while tenants keep
arriving.  The crash lands on the first dispatch at/after the trigger:
if that op reaches a device-visible mutation the shard's injector fires
a :class:`~repro.faults.injector.CrashPoint` (optionally torn) with the
op in flight; an op that mutates nothing (e.g. a cache-hit read) has
power drop at the op boundary instead.  The in-flight op counts as
*lost to crash* (submitted, never served), the device queue is down
until recovery completes, and the file system's own crash-recovery path
(``fs.crash()`` + ``fs.remount()``) runs inside the outage window,
followed by a durability-oracle scrub of every tenant namespace on the
shard.  Arrivals landing inside the outage either wait (``requeue``,
the default — SLO damage accrues) or bounce (``reject``).  A trigger
the run never reaches fires at drain, so a planned fault always
executes.  The extended request ledger — checked by FSSAN-QUEUE — is
``submitted == served + pending + rejected + dropped + lost_to_crash``.

Everything is a pure function of (seed, config): two identical
``serve_cluster`` calls produce byte-identical result JSON.  The
measured wall-clock quantities (recovery ``wall_s``, the drain-phase
``result.wall_s``) therefore live only on the live result object; the
former serializes as ``null``, the latter not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.bytefs import FIRMWARE_FOR
from repro.devcache import DevCacheConfig
from repro.faults.plan import DeviceCrash, check_fault_plan
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.ssd.firmware.bytefs_fw import ByteFSFirmwareConfig
from repro.trace import tracer as trace

from repro.cluster.merge import merge_shard_results
from repro.cluster.result import ClusterRunResult
from repro.cluster.sched import make_scheduler
from repro.cluster.shard import place_tenant
from repro.cluster.tenant import TenantSpec, make_tenant_workload
from repro.cluster.worker import ShardTask, run_shard, run_shard_workers

#: outage policies for arrivals landing inside [t_down, t_up)
OUTAGE_POLICIES = ("requeue", "reject")


@dataclass(frozen=True)
class ServeConfig:
    """Every parameter of a serving run, declared once.

    This is the keyword API of :func:`serve_cluster`, the payload
    pickled to shard workers, and what the result document's config
    echo and the telemetry header are derived from.
    """

    tenants: Sequence[TenantSpec]
    fs_name: str = "bytefs"
    n_devices: int = 1
    sched: str = "drr"
    seed: int = 42
    queue_depth: int = 4
    max_queue: int = 64
    quantum_ns: Optional[float] = None
    geometry: Optional[FlashGeometry] = None
    timing: Optional[TimingModel] = None
    log_bytes: int = 1 << 20
    device_cache_bytes: int = 1 << 20
    page_cache_pages: int = 512
    #: optional device-DRAM cache tier (repro.devcache)
    devcache: Optional[DevCacheConfig] = None
    #: keep the span tree of the measured phase on ``result.trace``
    traced: bool = False
    keep_dispatch_log: bool = False
    #: unmount every shard after the drain; the device summaries then
    #: include the final flush
    unmount: bool = False
    #: crash and recover devices mid-run (see the module docstring);
    #: every tenant placed on a faulted device must run a profile /
    #: ``synthetic`` workload, the only ones the durability oracle can
    #: mirror across a crash
    faults: Optional[Sequence[DeviceCrash]] = None
    outage_policy: str = "requeue"
    #: live telemetry: sample every shard at this virtual-time interval
    #: onto the live-only ``result.telemetry`` (serialize it with
    #: :func:`repro.telemetry.series.write_series`); ``None`` leaves the
    #: serve loop's telemetry hooks dormant
    sample_every_ns: Optional[float] = None
    #: 0 = one in-process shard; N > 0 = ``min(N, n_devices)`` shard
    #: worker processes (byte-identical documents either way)
    workers: int = 0

    def __post_init__(self) -> None:
        # Frozen *and* picklable: sequences become tuples.
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "faults", tuple(self.faults or ()))

    def scheduler_echo(self) -> Dict:
        return make_scheduler(self.sched, [], self.quantum_ns).config_json()

    def sampler_meta(self) -> Dict:
        return {
            "fs": self.fs_name,
            "scheduler": self.sched,
            "n_devices": self.n_devices,
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "seed": self.seed,
        }


def validate(cfg: ServeConfig) -> List[int]:
    """Reject a bad configuration; returns the tenants' placement.

    The one validation of the serving layer: it runs before anything is
    built or spawned, so a bad parameter is the same ``ValueError`` for
    every worker count and never a traceback out of a child process.
    """
    if not cfg.tenants:
        raise ValueError("need at least one tenant")
    names = [t.name for t in cfg.tenants]
    if len(set(names)) != len(names):
        raise ValueError("tenant names must be unique")
    if cfg.outage_policy not in OUTAGE_POLICIES:
        raise ValueError(
            f"unknown outage policy {cfg.outage_policy!r}; choose from "
            f"{', '.join(OUTAGE_POLICIES)}"
        )
    if cfg.workers < 0:
        raise ValueError("workers must be >= 0")
    if cfg.traced and cfg.workers > 0:
        raise ValueError(
            "traced=True keeps one span tree on one tracer and requires "
            "the serial run, one in-process shard (workers=0); "
            "metrics-only auto tracing works with workers"
        )
    if cfg.n_devices < 1:
        raise ValueError("need at least one device")
    if cfg.queue_depth < 1:
        raise ValueError("queue depth must be >= 1")
    if cfg.fs_name not in FIRMWARE_FOR:
        raise ValueError(f"unknown file system {cfg.fs_name!r}")
    if cfg.sample_every_ns is not None and cfg.sample_every_ns <= 0:
        raise ValueError("sample_every_ns must be positive")
    if cfg.page_cache_pages < 1:
        raise ValueError("page_cache_pages must be >= 1")
    if FIRMWARE_FOR[cfg.fs_name] == "bytefs":
        ByteFSFirmwareConfig(log_bytes=cfg.log_bytes)  # the firmware's check
    faulted = {f.device for f in check_fault_plan(cfg.faults, cfg.n_devices)}
    cfg.scheduler_echo()  # the scheduler name and the DRR quantum
    placement = []
    for spec in cfg.tenants:
        dev = place_tenant(spec, cfg.n_devices)  # the pin, if any
        workload = make_tenant_workload(spec, cfg.seed)  # the name
        if dev in faulted and not hasattr(workload, "attach_oracle"):
            raise ValueError(
                f"tenant {spec.name!r} runs workload "
                f"{spec.workload!r} on faulted device {dev}; only "
                "profile/'synthetic' workloads can be oracle-"
                "mirrored through a crash"
            )
        if spec.rate_ops_s <= 0:
            raise ValueError(
                f"tenant {spec.name!r} needs a positive rate_ops_s"
            )
        placement.append(dev)
    return placement


def plan_shards(cfg: ServeConfig, placement: List[int]) -> List[ShardTask]:
    """Device ownership: device ``d`` goes to shard ``d % W``."""
    n_shards = min(cfg.workers, cfg.n_devices) or 1
    owner = {dev: dev % n_shards for dev in range(cfg.n_devices)}
    # A faulted device with no tenants power-cycles on clock thread 0 at
    # drain end; only the shard serving tenant 0's device knows that
    # thread's post-drain time, so such devices move to that shard.
    populated = set(placement)
    for fault in cfg.faults:
        if fault.device not in populated:
            owner[fault.device] = owner[placement[0]]
    auto_trace = bool(trace.AUTO) and not cfg.traced
    return [
        ShardTask(
            config=cfg,
            worker_id=w,
            owned_devices=tuple(
                dev for dev in range(cfg.n_devices) if owner[dev] == w
            ),
            placement=tuple(placement),
            auto_trace=auto_trace,
        )
        for w in range(n_shards)
    ]


def serve_cluster(
    tenants: Sequence[TenantSpec], **overrides
) -> ClusterRunResult:
    """Run ``tenants`` against a sharded backend; the keywords are the
    fields of :class:`ServeConfig`.

    Setup (namespace creation, file-set preparation) happens before the
    measurement epoch, exactly like the single-tenant harness: traffic
    stats reset and arrival processes start after all tenants are set up
    and every timeline is synchronized.
    """
    cfg = ServeConfig(tenants, **overrides)
    tasks = plan_shards(cfg, validate(cfg))
    if cfg.workers == 0:
        # The identity exchange: one shard's barriers are its own values.
        results = [run_shard(tasks[0], lambda tag, local: local)]
        wall_s = results[0].wall_s
    else:
        wall_s, results = run_shard_workers(tasks)
    return merge_shard_results(results, cfg, wall_s)
