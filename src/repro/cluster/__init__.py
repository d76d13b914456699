"""repro.cluster: a multi-tenant serving layer over the simulator.

Turns the single-tenant reproduction stack into a small "storage
service": N tenants with open-loop arrival processes and private
namespaces, striped across K simulated M-SSDs, arbitrated by a pluggable
I/O scheduler (FIFO / weighted-fair DRR / token-bucket rate limiting)
with admission control and per-tenant SLO accounting.

Entry points: :func:`serve_cluster` (library; its keywords are the
fields of :class:`ServeConfig`), ``repro serve`` (CLI).
"""

from repro.cluster.result import (
    ALL_OPS,
    SCHEMA,
    ClusterRunResult,
    TenantResult,
    validate_cluster_run,
)
from repro.cluster.sched import (
    SCHEDULERS,
    AdmissionQueue,
    DRRScheduler,
    FIFOScheduler,
    Scheduler,
    TokenBucketScheduler,
    make_scheduler,
)
from repro.cluster.serve import ServeConfig, serve_cluster
from repro.cluster.shard import ShardedBackend, place_tenant
from repro.cluster.tenant import (
    DEFAULT_PROFILE_CYCLE,
    PROFILES,
    NamespacedFS,
    SyntheticTenantWorkload,
    TenantSpec,
    default_tenants,
    make_tenant_workload,
)

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
