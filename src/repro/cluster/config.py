"""The parameters of a serving run, apart from the code that runs it.

:class:`ServeConfig` is pickled into every shard task, so a spawned
shard worker imports this module to unpickle its task; it imports no
more of the serving layer than the scheduler table, which keeps the
worker from loading :mod:`repro.cluster.serve` and the reducer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.cluster.sched import make_scheduler

if TYPE_CHECKING:
    from repro.devcache.config import DevCacheConfig
    from repro.faults.plan import DeviceCrash
    from repro.nand.geometry import FlashGeometry
    from repro.nand.timing import TimingModel

    from repro.cluster.tenant import TenantSpec

#: outage policies for arrivals landing inside [t_down, t_up)
OUTAGE_POLICIES = ("requeue", "reject")


@dataclass(frozen=True)
class ServeConfig:
    """Every parameter of a serving run, declared once.

    This is the keyword API of
    :func:`~repro.cluster.serve.serve_cluster`, the payload
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
    #: crash and recover devices mid-run (see :mod:`repro.cluster.serve`);
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
