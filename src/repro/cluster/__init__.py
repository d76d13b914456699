"""repro.cluster: a multi-tenant serving layer over the simulator.

Turns the single-tenant reproduction stack into a small "storage
service": N tenants with open-loop arrival processes and private
namespaces, striped across K simulated M-SSDs, arbitrated by a pluggable
I/O scheduler (FIFO / weighted-fair DRR / token-bucket rate limiting)
with admission control and per-tenant SLO accounting.

Entry points: :func:`serve_cluster` (library; its keywords are the
fields of :class:`~repro.cluster.config.ServeConfig`), ``repro serve``
(CLI).
"""

from repro._lazy import lazy_exports

# Every name resolves on first use: a spawned shard worker imports
# repro.cluster.worker, and so this package, and then loads the shard
# routine alone, not the serving harness or the reducer.
__getattr__ = lazy_exports(globals(), {
    "repro.cluster.config": ("ServeConfig",),
    "repro.cluster.result": (
        "ALL_OPS", "SCHEMA", "ClusterRunResult", "TenantResult",
        "validate_cluster_run",
    ),
    "repro.cluster.sched": (
        "SCHEDULERS", "AdmissionQueue", "DRRScheduler", "FIFOScheduler",
        "Scheduler", "TokenBucketScheduler", "make_scheduler",
    ),
    "repro.cluster.serve": ("serve_cluster",),
    "repro.cluster.shard": ("ShardedBackend", "place_tenant"),
    "repro.cluster.tenant": (
        "DEFAULT_PROFILE_CYCLE", "PROFILES", "NamespacedFS",
        "SyntheticTenantWorkload", "TenantSpec", "default_tenants",
        "make_tenant_workload",
    ),
})

__all__ = [
    "ALL_OPS",
    "SCHEMA",
    "SCHEDULERS",
    "PROFILES",
    "DEFAULT_PROFILE_CYCLE",
    "AdmissionQueue",
    "ClusterRunResult",
    "DRRScheduler",
    "FIFOScheduler",
    "NamespacedFS",
    "Scheduler",
    "ServeConfig",
    "ShardedBackend",
    "SyntheticTenantWorkload",
    "TenantResult",
    "TenantSpec",
    "TokenBucketScheduler",
    "default_tenants",
    "make_scheduler",
    "make_tenant_workload",
    "place_tenant",
    "serve_cluster",
    "validate_cluster_run",
]
