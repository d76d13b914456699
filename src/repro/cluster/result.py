"""The versioned result document of a cluster serving run.

``repro serve --format=json`` emits the ``repro.cluster.run/v2`` schema:
per-tenant latency distributions (p50/p95/p99 of queueing + service),
SLO-violation and admission-rejection counts, per-tenant attributed
traffic, per-device aggregates, and a full config echo (seed, scheduler,
tenant specs) so any result file is reproducible from itself.

v2 adds the recovery section for faulted runs (``--fault``): a
``fault_plan`` echo, per-device recovery records (crash trigger, what
fired, outage window on the virtual timeline, remount firmware stats,
and the durability-oracle verdict per tenant), plus per-tenant
``lost_to_crash`` / ``outage_rejected`` / ``slo_violations_outage``
counters.  The extended request ledger is
``submitted == ops + rejected + dropped + lost_to_crash``.

One field is deliberately non-reproducible: each recovery record's
``wall_s`` (host wall-clock spent in the recovery protocol) is kept on
the live :attr:`ClusterRunResult.recovery` records but serialized as
``null``, so the JSON document stays byte-identical across identical
invocations (the CI determinism gate ``cmp``\\ s two runs).

Every field is declared once, in :data:`RUN` and the tables it nests at
the end of this module; :func:`validate_cluster_run` checks a document
against them before ``repro serve`` writes it and ``repro top`` reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.schema import Map, Opt, OrNull, Table, check, outage_window
from repro.stats.traffic import LatencyRecorder

SCHEMA = "repro.cluster.run/v2"

#: LatencyRecorder key that aggregates every op of a tenant.
ALL_OPS = "all"


def _num(x):
    """NaN/inf are not JSON; map them to null like RunResult.to_json."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _latency_json(latency: LatencyRecorder) -> Dict[str, Dict]:
    return {
        op: {k: _num(v) for k, v in latency.summary(op).items()}
        for op in latency.ops()
    }


@dataclass
class TenantResult:
    """Everything the run reports about one tenant."""

    spec: Dict                       # TenantSpec.to_json() echo
    device: int
    ops: int                         # requests served to completion
    submitted: int                   # arrivals processed (every bucket below)
    rejected: int                    # admission-control rejections
    dropped: int                     # arrivals abandoned (workload exhausted)
    slo_violations: int
    latency: LatencyRecorder
    #: host<->SSD / flash / app bytes attributed to this tenant's dispatches
    traffic: Dict[str, int] = field(default_factory=dict)
    #: requests in flight when the shard lost power (never completed)
    lost_to_crash: int = 0
    #: rejections attributed to arrivals landing inside an outage window
    #: (``--outage-policy reject``); always <= rejected
    outage_rejected: int = 0
    #: SLO violations whose [arrival, completion] overlapped an outage
    slo_violations_outage: int = 0

    @property
    def name(self) -> str:
        return self.spec["name"]

    def to_json(self, elapsed_s: float) -> Dict:
        throughput = self.ops / elapsed_s if elapsed_s > 0 else float("inf")
        app_w = self.traffic.get("app_write", 0)
        host_w = self.traffic.get("host_write", 0)
        wamp = host_w / app_w if app_w else float("nan")
        return {
            "spec": self.spec,
            "device": self.device,
            "ops": self.ops,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "lost_to_crash": self.lost_to_crash,
            "outage_rejected": self.outage_rejected,
            "slo_violations": self.slo_violations,
            "slo_violations_outage": self.slo_violations_outage,
            "throughput_ops_s": _num(throughput),
            "write_amplification": _num(wamp),
            "latency": _latency_json(self.latency),
            "traffic": dict(sorted(self.traffic.items())),
        }


@dataclass
class ClusterRunResult:
    """The ``repro.cluster.run/v2`` document (plus live objects)."""

    fs_name: str
    scheduler: Dict                  # Scheduler.config_json()
    n_devices: int
    queue_depth: int
    max_queue: int
    seed: int
    elapsed_s: float
    tenants: List[TenantResult]
    devices: List[Dict]              # ShardedBackend.device_summary()
    latency: LatencyRecorder         # cluster-wide, keyed like per-tenant
    #: live-only: the span-keeping Tracer of a ``traced=True`` run, else
    #: None — for every worker count.  Metrics-only auto tracing
    #: (REPRO_TRACE=1) keeps no tracer: its per-device registries end up
    #: in the telemetry series' layer rows
    trace: Optional[object] = None
    #: optional per-dispatch log: (device, tenant, op, arrival, begin, end)
    dispatch_log: Optional[List] = None
    #: arrivals during an outage wait ("requeue") or bounce ("reject")
    outage_policy: str = "requeue"
    #: DeviceCrash.to_json() echo of the requested faults; None = no faults
    fault_plan: Optional[List[Dict]] = None
    #: DevCacheConfig echo when the device-DRAM cache tier was enabled;
    #: None (cache off) omits the key so pre-devcache documents are
    #: byte-identical
    devcache: Optional[Dict] = None
    #: one record per power-cycled device, in device order; ``wall_s`` on
    #: these live records is the measured host time (nulled in to_json)
    recovery: List[Dict] = field(default_factory=list)
    #: live-only: the run's TelemetrySampler when ``sample_every_ns`` was
    #: set (serialize via repro.telemetry.series, never into this doc)
    telemetry: Optional[object] = None
    #: live-only: measured host wall-clock of the drain phase (the bench
    #: harnesses read it; never serialized — the doc stays deterministic).
    #: workers=0: the shard's own drain, first ``run_device_drain`` entry
    #: to the last drain / orphan-crash return; workers>0: the parent's
    #: t0 broadcast to the last shard's "ran"
    wall_s: Optional[float] = None
    #: live-only: per-layer device call-count deltas of the drain phase,
    #: summed over shards (the keys of ``kernel.device_call_snapshot``)
    layer_calls: Optional[Dict[str, int]] = None

    @property
    def ops(self) -> int:
        return sum(t.ops for t in self.tenants)

    @property
    def throughput(self) -> float:
        if self.elapsed_s <= 0:
            return float("inf")
        return self.ops / self.elapsed_s

    def tenant(self, name: str) -> TenantResult:
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(name)

    def to_json(self) -> Dict:
        doc = {
            "schema": SCHEMA,
            "fs": self.fs_name,
            "scheduler": self.scheduler,
            "n_devices": self.n_devices,
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "seed": self.seed,
            "elapsed_s": self.elapsed_s,
            "ops": self.ops,
            "throughput_ops_s": _num(self.throughput),
            "slo_violations": sum(t.slo_violations for t in self.tenants),
            "rejected": sum(t.rejected for t in self.tenants),
            "lost_to_crash": sum(t.lost_to_crash for t in self.tenants),
            "outage_policy": self.outage_policy,
            "fault_plan": self.fault_plan,
            "recovery": [{**r, "wall_s": None} for r in self.recovery],
            "latency": _latency_json(self.latency),
            "tenants": [t.to_json(self.elapsed_s) for t in self.tenants],
            "devices": self.devices,
        }
        if self.devcache is not None:
            doc["devcache"] = self.devcache
        return doc


# ---------------------------------------------------------------------- #
# the field tables: the document's one declaration, and its validator
# ---------------------------------------------------------------------- #

#: LatencyRecorder.summary(op); non-finite values serialize as null
LATENCY = Table({"count": int, "mean": OrNull(float), "p50": OrNull(float),
                 "p95": OrNull(float), "p99": OrNull(float)})

#: TenantSpec.to_json()
SPEC = Table({
    "name": str, "workload": str, "rate_ops_s": float, "weight": int,
    "limit_ops_s": OrNull(float), "burst_ops": int, "slo_ms": float,
    "n_ops": int, "device": OrNull(int),
})


def _tenant_ledger(t: Dict, where: str):
    settled = t["ops"] + t["rejected"] + t["dropped"] + t["lost_to_crash"]
    if t["submitted"] != settled:
        yield f"{where}: submitted != ops + rejected + dropped + lost_to_crash"
    for part, whole in (("outage_rejected", "rejected"),
                        ("slo_violations_outage", "slo_violations")):
        if t[part] > t[whole]:
            yield f"{where}: {part} exceeds {whole}"


TENANT = Table({
    "spec": SPEC, "device": int, "ops": int, "submitted": int,
    "rejected": int, "dropped": int, "lost_to_crash": int,
    "outage_rejected": int, "slo_violations": int,
    "slo_violations_outage": int, "throughput_ops_s": OrNull(float),
    "write_amplification": OrNull(float), "latency": Map(LATENCY),
    "traffic": Map(int),
}, rule=_tenant_ledger)

#: ShardedBackend.device_summary()
DEVICE = Table({
    "device": int, "host_write": int, "host_read": int, "flash_write": int,
    "flash_read": int, "app_write": int, "app_read": int,
    "queue_depth": int, "fault_counters": Map(int),
})

#: DeviceCrash.to_json()
TRIGGER = Table({"device": int, "at_s": OrNull(float),
                 "after_ops": OrNull(int), "torn": bool})


def _clean_means_no_errors(oracle: Dict, where: str):
    if oracle["clean"] and oracle["errors"]:
        yield f"{where}: clean but has errors"


#: one record per power-cycled device (kernel.crash_and_recover)
RECOVERY = Table({
    "device": int, "trigger": TRIGGER,
    "fired": OrNull(Table({"site": int, "label": str, "nbytes": int,
                           "torn_bytes": int})),
    "t_down_ns": float, "t_up_ns": float, "virtual_ns": float,
    "wall_s": OrNull(float), "fw": Map(float),
    "oracle": Table({"checked": [str], "clean": bool,
                     "errors": Map([str])}, rule=_clean_means_no_errors),
}, rule=outage_window)


def _run_rules(doc: Dict, where: str):
    n = doc["n_devices"]
    if not doc["tenants"]:
        yield "tenants must be non-empty"
    if len(doc["devices"]) != n or any(
        d["device"] != i for i, d in enumerate(doc["devices"])
    ):
        yield "devices must list devices 0..n_devices-1 in order"
    if doc["recovery"] and doc["fault_plan"] is None:
        yield "recovery section present without a fault_plan"


RUN = Table({
    "schema": (SCHEMA,), "fs": str,
    "scheduler": Table({"policy": str, "quantum_ns": Opt(float)}),
    "n_devices": int, "queue_depth": int, "max_queue": int, "seed": int,
    "elapsed_s": float, "ops": int, "throughput_ops_s": OrNull(float),
    "slo_violations": int, "rejected": int, "lost_to_crash": int,
    "outage_policy": ("requeue", "reject"),
    "fault_plan": OrNull([TRIGGER]), "recovery": [RECOVERY],
    "latency": Map(LATENCY), "tenants": [TENANT], "devices": [DEVICE],
    # DevCacheConfig.echo(); absent when the cache tier was off
    "devcache": Opt(Table({"cache_bytes": int, "policy": str,
                           "prefetch": bool})),
}, rule=_run_rules)


def validate_cluster_run(doc: Dict) -> List[str]:
    """Return a list of schema problems (empty = valid)."""
    return check(doc, RUN)
