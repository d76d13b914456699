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

:func:`validate_cluster_run` is the CI schema gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
# schema validation (CI gate)
# ---------------------------------------------------------------------- #

_TOP_FIELDS = {
    "fs": str,
    "scheduler": dict,
    "n_devices": int,
    "queue_depth": int,
    "max_queue": int,
    "seed": int,
    "elapsed_s": (int, float),
    "ops": int,
    "slo_violations": int,
    "rejected": int,
    "lost_to_crash": int,
    "outage_policy": str,
    "recovery": list,
    "latency": dict,
    "tenants": list,
    "devices": list,
}

_TENANT_FIELDS = {
    "spec": dict,
    "device": int,
    "ops": int,
    "submitted": int,
    "rejected": int,
    "dropped": int,
    "lost_to_crash": int,
    "outage_rejected": int,
    "slo_violations": int,
    "slo_violations_outage": int,
    "latency": dict,
    "traffic": dict,
}

#: numeric virtual-timeline fields of one recovery record
_RECOVERY_NUM_FIELDS = ("t_down_ns", "t_up_ns", "virtual_ns")

_LATENCY_KEYS = ("count", "mean", "p50", "p95", "p99")


def _check_num_or_null(
    obj: Dict, key: str, where: str, problems: List[str],
) -> None:
    """Derived rates may serialize as null (inf/NaN via ``_num``)."""
    if key not in obj:
        problems.append(f"{where} missing {key!r}")
        return
    v = obj[key]
    if v is not None and (
        not isinstance(v, (int, float)) or isinstance(v, bool)
    ):
        problems.append(f"{where}.{key} must be a number or null")


def _check_latency(lat: Dict, where: str, problems: List[str]) -> None:
    for op, summary in lat.items():
        if not isinstance(summary, dict):
            problems.append(f"{where}.latency[{op!r}] is not an object")
            continue
        for key in _LATENCY_KEYS:
            v = summary.get(key)
            if v is not None and (
                not isinstance(v, (int, float)) or isinstance(v, bool)
            ):
                problems.append(
                    f"{where}.latency[{op!r}].{key} must be a number or null"
                )


def _check_recovery(doc: Dict, problems: List[str]) -> None:
    n_devices = doc.get("n_devices")
    for i, rec in enumerate(doc.get("recovery", ())):
        where = f"recovery[{i}]"
        if not isinstance(rec, dict):
            problems.append(f"{where} is not an object")
            continue
        dev = rec.get("device")
        if not isinstance(dev, int) or isinstance(dev, bool):
            problems.append(f"{where}.device must be an int")
        elif isinstance(n_devices, int) and not 0 <= dev < n_devices:
            problems.append(f"{where}.device out of range")
        for key in _RECOVERY_NUM_FIELDS:
            v = rec.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                problems.append(f"{where}.{key} must be a number")
        if all(
            isinstance(rec.get(k), (int, float)) for k in ("t_down_ns", "t_up_ns")
        ) and rec["t_up_ns"] < rec["t_down_ns"]:
            problems.append(f"{where}: t_up_ns precedes t_down_ns")
        wall = rec.get("wall_s")
        if wall is not None and (
            not isinstance(wall, (int, float)) or isinstance(wall, bool)
        ):
            problems.append(f"{where}.wall_s must be a number or null")
        if not isinstance(rec.get("trigger"), dict):
            problems.append(f"{where}.trigger must be an object")
        fired = rec.get("fired", 0)
        if fired is not None and not isinstance(fired, dict):
            problems.append(f"{where}.fired must be an object or null")
        if not isinstance(rec.get("fw"), dict):
            problems.append(f"{where}.fw must be an object")
        oracle = rec.get("oracle")
        if not isinstance(oracle, dict):
            problems.append(f"{where}.oracle must be an object")
            continue
        if not isinstance(oracle.get("clean"), bool):
            problems.append(f"{where}.oracle.clean must be a bool")
        if not isinstance(oracle.get("checked"), list):
            problems.append(f"{where}.oracle.checked must be a list")
        if not isinstance(oracle.get("errors"), dict):
            problems.append(f"{where}.oracle.errors must be an object")
        elif oracle.get("clean") is True and oracle["errors"]:
            problems.append(f"{where}.oracle clean but has errors")


def validate_cluster_run(doc: Dict) -> List[str]:
    """Return a list of schema problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}"
        )
    for key, typ in _TOP_FIELDS.items():
        if key not in doc:
            problems.append(f"missing {key!r}")
        elif not isinstance(doc[key], typ) or isinstance(doc[key], bool):
            problems.append(f"{key} has wrong type")
    _check_num_or_null(doc, "throughput_ops_s", "$", problems)
    if isinstance(doc.get("latency"), dict):
        _check_latency(doc["latency"], "$", problems)
    tenants = doc.get("tenants")
    if isinstance(tenants, list):
        if not tenants:
            problems.append("tenants must be non-empty")
        for i, t in enumerate(tenants):
            if not isinstance(t, dict):
                problems.append(f"tenants[{i}] is not an object")
                continue
            for key, typ in _TENANT_FIELDS.items():
                if key not in t:
                    problems.append(f"tenants[{i}] missing {key!r}")
                elif not isinstance(t[key], typ) or isinstance(t[key], bool):
                    problems.append(f"tenants[{i}].{key} has wrong type")
            _check_num_or_null(
                t, "throughput_ops_s", f"tenants[{i}]", problems
            )
            _check_num_or_null(
                t, "write_amplification", f"tenants[{i}]", problems
            )
            if isinstance(t.get("latency"), dict):
                _check_latency(t["latency"], f"tenants[{i}]", problems)
            if isinstance(t.get("spec"), dict) and "name" not in t["spec"]:
                problems.append(f"tenants[{i}].spec missing 'name'")
            ledger = (
                "ops", "submitted", "rejected", "dropped", "lost_to_crash",
            )
            if all(isinstance(t.get(k), int) for k in ledger) and (
                t["submitted"]
                != t["ops"] + t["rejected"] + t["dropped"]
                + t["lost_to_crash"]
            ):
                problems.append(
                    f"tenants[{i}]: submitted != ops + rejected + dropped "
                    "+ lost_to_crash"
                )
            for part, whole in (
                ("outage_rejected", "rejected"),
                ("slo_violations_outage", "slo_violations"),
            ):
                if (
                    isinstance(t.get(part), int)
                    and isinstance(t.get(whole), int)
                    and t[part] > t[whole]
                ):
                    problems.append(f"tenants[{i}]: {part} exceeds {whole}")
    devices = doc.get("devices")
    if isinstance(devices, list):
        n = doc.get("n_devices")
        if isinstance(n, int) and len(devices) != n:
            problems.append("devices list length disagrees with n_devices")
        for i, d in enumerate(devices):
            if not isinstance(d, dict) or d.get("device") != i:
                problems.append(f"devices[{i}] malformed or out of order")
    sched = doc.get("scheduler")
    if isinstance(sched, dict) and not isinstance(sched.get("policy"), str):
        problems.append("scheduler.policy must be a string")
    if doc.get("outage_policy") not in (None, "requeue", "reject"):
        problems.append("outage_policy must be 'requeue' or 'reject'")
    plan = doc.get("fault_plan", 0)
    if plan is not None and (
        not isinstance(plan, list)
        or not all(isinstance(f, dict) for f in plan)
    ):
        problems.append("fault_plan must be null or a list of objects")
    if isinstance(doc.get("recovery"), list):
        _check_recovery(doc, problems)
        if plan is None and doc["recovery"]:
            problems.append("recovery section present without a fault_plan")
    # the devcache echo is optional: absent means the cache tier was off
    devcache = doc.get("devcache")
    if devcache is not None:
        if not isinstance(devcache, dict):
            problems.append("devcache must be an object when present")
        else:
            if not isinstance(devcache.get("cache_bytes"), int):
                problems.append("devcache.cache_bytes must be an int")
            if not isinstance(devcache.get("policy"), str):
                problems.append("devcache.policy must be a string")
            if not isinstance(devcache.get("prefetch"), bool):
                problems.append("devcache.prefetch must be a bool")
    return problems
