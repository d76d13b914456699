"""The deterministic reducer of the serving layer.

:func:`merge_shard_results` assembles the
:class:`~repro.cluster.worker.ShardResult` fragments of a run — one for
``workers=0``, ``min(N, n_devices)`` for ``workers=N`` — into the
:class:`~repro.cluster.result.ClusterRunResult`.  It is the only place
one is built, so the serialized ``repro.cluster.run/v2`` document and
the ``repro.telemetry.series/v1`` output are the same bytes for every
worker count and every completion order.

Why byte identity is achievable at all:

* every per-tenant and per-device quantity is produced by exactly one
  shard, from the same seeded state whichever shard that is — the
  reducer only has to put fragments into canonical order (tenants by
  global index, devices and recovery records by device index, outages
  of populated devices before those of tenant-less ones, the order one
  shard emits them in);
* the two cross-shard aggregates are order-insensitive at the byte
  level: latency summaries are computed over *sorted* sample lists
  (any merge grouping yields the same bytes), and trace metric
  registries are kept per device and merged here in device-index order
  for every worker count, so even float accumulation order is fixed;
* telemetry rows re-sort at export (``sorted_rows``), so concatenation
  order is irrelevant.

Completion order never enters: the reducer iterates shards by id and
devices by index, never by arrival of their pipe messages.  Everything
the document echoes of the configuration is derived from the one
:class:`~repro.cluster.config.ServeConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.clock import SEC
from repro.telemetry.sampler import TelemetrySampler
from repro.trace.metrics import MetricsRegistry

from repro.cluster.result import ClusterRunResult, TenantResult

if TYPE_CHECKING:
    from repro.cluster.config import ServeConfig


def merge_shard_results(
    results: List, cfg: "ServeConfig", wall_s: float
) -> ClusterRunResult:
    """Reduce shard fragments into the canonical cluster result.

    ``wall_s`` is the measured host wall of the drain, which only the
    transport knows (see :attr:`ClusterRunResult.wall_s`).
    """
    ordered = sorted(results, key=lambda r: r.worker_id)
    t0, t_end = ordered[0].t0, ordered[0].t_end

    tenant_by_index: Dict[int, TenantResult] = {}
    device_summaries: Dict[int, Dict] = {}
    recovery_by_device: Dict[int, Dict] = {}
    metrics_by_device: Dict[int, MetricsRegistry] = {}
    layer_calls: Dict[str, int] = {}
    for shard in ordered:
        for index, tres in shard.tenants:
            tenant_by_index[index] = tres
        device_summaries.update(shard.device_summaries)
        recovery_by_device.update(shard.recovery)
        metrics_by_device.update(shard.metrics)
        for key in sorted(shard.layer_calls):
            layer_calls[key] = (
                layer_calls.get(key, 0) + shard.layer_calls[key]
            )
    # Folded into the first fragment's recorder, not a fresh one: one
    # copy of the cluster's samples fewer at the run's memory peak.
    latency = ordered[0].latency
    for shard in ordered[1:]:
        latency.merge(shard.latency)
    n_tenants = len(cfg.tenants)
    missing_t = [i for i in range(n_tenants) if i not in tenant_by_index]
    if missing_t:
        raise RuntimeError(f"no shard served tenants {missing_t}")
    missing_d = [
        k for k in range(cfg.n_devices) if k not in device_summaries
    ]
    if missing_d:
        raise RuntimeError(f"no shard summarized devices {missing_d}")

    # The layer metrics of the run: the span tracer's own registry
    # (traced=True, one shard), or the per-device registries of an
    # auto-trace run, or None.
    tracer = ordered[0].tracer
    metrics: Optional[MetricsRegistry] = None
    if tracer is not None:
        metrics = tracer.metrics
    elif metrics_by_device:
        metrics = MetricsRegistry()
        for dev in sorted(metrics_by_device):
            metrics.merge(metrics_by_device[dev])

    telemetry = None
    if cfg.sample_every_ns is not None:
        rows: List[Dict] = []
        outages: List[Dict] = []
        for shard in ordered:
            rows.extend(shard.telemetry_rows)
            outages.extend(shard.telemetry_outages)
        populated = {tenant_by_index[i].device for i in range(n_tenants)}
        outages.sort(
            key=lambda o: (o["device"] not in populated, o["device"])
        )
        telemetry = TelemetrySampler.merged(
            t0, cfg.sample_every_ns, cfg.sampler_meta(), rows, outages
        )
        telemetry.finalize(t_end, metrics)

    return ClusterRunResult(
        fs_name=cfg.fs_name,
        scheduler=cfg.scheduler_echo(),
        n_devices=cfg.n_devices,
        queue_depth=cfg.queue_depth,
        max_queue=cfg.max_queue,
        seed=cfg.seed,
        elapsed_s=(t_end - t0) / SEC,
        tenants=[tenant_by_index[i] for i in range(n_tenants)],
        devices=[device_summaries[k] for k in range(cfg.n_devices)],
        latency=latency,
        trace=tracer,
        dispatch_log=_merge_dispatch_logs(ordered, cfg),
        outage_policy=cfg.outage_policy,
        fault_plan=[f.to_json() for f in cfg.faults] or None,
        devcache=cfg.devcache.echo() if cfg.devcache is not None else None,
        recovery=[
            recovery_by_device[dev] for dev in sorted(recovery_by_device)
        ],
        telemetry=telemetry,
        wall_s=wall_s,
        layer_calls=layer_calls,
    )


def _merge_dispatch_logs(
    ordered: List, cfg: "ServeConfig"
) -> Optional[List[Dict]]:
    """Concatenate per-device log fragments in device-index order — the
    order a shard drains its devices in, so entry order is that of one
    shard owning them all."""
    if not cfg.keep_dispatch_log:
        return None
    log_by_device: Dict[int, List[Dict]] = {}
    for shard in ordered:
        log_by_device.update(shard.dispatch_log)
    merged: List[Dict] = []
    for dev in range(cfg.n_devices):
        merged.extend(log_by_device[dev])
    return merged
