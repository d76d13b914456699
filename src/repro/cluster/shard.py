"""Sharded multi-device backend for the serving layer.

A :class:`ShardedBackend` stripes tenant namespaces across ``n_devices``
independent :class:`~repro.ssd.device.MSSD` + file-system stacks that
share one :class:`~repro.sim.clock.VirtualClock`.  Each device gets its
own :class:`~repro.stats.traffic.TrafficStats` (so traffic and
amplification report per shard) and resource names prefixed with
``dev<k>.`` (so trace wait attribution distinguishes, say, ``dev0``'s
flash channels from ``dev1``'s).

Placement is deterministic: a tenant either pins a device index on its
spec or hashes its *name* (sha256, stable across runs and Python
processes — never ``hash()``, which is salted) onto a shard.  Tenants
never span devices; cross-tenant interference therefore only happens
between tenants placed on the same shard, which is exactly what the
scheduler policies arbitrate.
"""

from __future__ import annotations

import hashlib
from typing import Collection, Dict, List, Optional

from repro.devcache.config import DevCacheConfig
from repro.faults.injector import FaultInjector
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.stats.traffic import Direction, TrafficStats

from repro.cluster.sched import AdmissionQueue
from repro.cluster.tenant import NamespacedFS, TenantSpec


def place_tenant(spec: TenantSpec, n_devices: int) -> int:
    """Deterministic shard for ``spec``: explicit pin or name hash."""
    if spec.device is not None:
        if not 0 <= spec.device < n_devices:
            raise ValueError(
                f"tenant {spec.name!r} pinned to device {spec.device}, "
                f"but the cluster has {n_devices} device(s)"
            )
        return spec.device
    digest = hashlib.sha256(spec.name.encode()).digest()
    return int.from_bytes(digest[:8], "little") % n_devices


class ShardedBackend:
    """``n_devices`` independent device+fs stacks on one virtual clock."""

    def __init__(
        self,
        fs_name: str,
        n_devices: int,
        clock: VirtualClock,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[TimingModel] = None,
        log_bytes: int = 1 << 20,
        device_cache_bytes: int = 1 << 20,
        page_cache_pages: int = 512,
        devcache: Optional[DevCacheConfig] = None,
        queue_depth: int = 4,
        fault_devices: Collection[int] = (),
    ) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        # Here, not at module level: a serve parent with workers imports
        # this module and builds no stack.
        from repro.core.bytefs import build_stack

        self.fs_name = fs_name
        self.clock = clock
        self.stats: List[TrafficStats] = []
        self.devices = []
        self.filesystems = []
        self.queues: List[AdmissionQueue] = []
        #: per-device crash injector; None unless the device is listed in
        #: ``fault_devices`` (the serving loop arms it mid-run)
        self.injectors: List[Optional[FaultInjector]] = []
        for k in range(n_devices):
            stats = TrafficStats()
            injector = (
                FaultInjector(stats) if k in fault_devices else None
            )
            _, _, device, fs = build_stack(
                fs_name,
                geometry=geometry,
                timing=timing,
                log_bytes=log_bytes,
                device_cache_bytes=device_cache_bytes,
                page_cache_pages=page_cache_pages,
                devcache=devcache,
                faults=injector,
                clock=clock,
                stats=stats,
                instance=f"dev{k}",
            )
            self.stats.append(stats)
            self.devices.append(device)
            self.filesystems.append(fs)
            self.queues.append(AdmissionQueue(k, queue_depth))
            self.injectors.append(injector)

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    def place(self, spec: TenantSpec) -> int:
        return place_tenant(spec, self.n_devices)

    def mount_namespace(self, spec: TenantSpec, device: int) -> NamespacedFS:
        """Create the tenant's private root on its shard and return the
        namespaced view."""
        fs = self.filesystems[device]
        ns = NamespacedFS(fs, f"tn-{spec.name}")
        if not fs.exists(ns.root):
            fs.mkdir(ns.root)
        return ns

    def reset_epoch(self) -> None:
        """Start the measured phase: zero every shard's traffic stats."""
        for stats in self.stats:
            stats.reset()

    def device_summary(self, device: int) -> Dict:
        """Per-shard aggregates for the run result."""
        stats = self.stats[device]
        host_w = stats.host_ssd_bytes(direction=Direction.WRITE)
        host_r = stats.host_ssd_bytes(direction=Direction.READ)
        return {
            "device": device,
            "host_write": host_w,
            "host_read": host_r,
            "flash_write": stats.flash_bytes(direction=Direction.WRITE),
            "flash_read": stats.flash_bytes(direction=Direction.READ),
            "app_write": stats.app.get(Direction.WRITE, 0),
            "app_read": stats.app.get(Direction.READ, 0),
            "queue_depth": self.queues[device].depth,
            "fault_counters": {
                k: stats.fault_counters[k]
                for k in sorted(stats.fault_counters)
            },
        }

    def unmount(self) -> None:
        for fs in self.filesystems:
            fs.unmount()
