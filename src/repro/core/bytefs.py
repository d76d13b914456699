"""ByteFS construction and the §5.4 ablation variants."""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Optional, Tuple

from repro.core.config import FIRMWARE_FOR
from repro.devcache.config import DevCacheConfig
from repro.fs.extfs import ExtFS, ExtFSConfig
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.stats.traffic import TrafficStats


class ByteFSVariant(enum.Enum):
    """The three design points of Figure 12."""

    DUAL = "dual"   # dual interface for metadata only; page-granular device cache
    LOG = "log"     # DUAL + firmware log-structured memory and transactions
    FULL = "full"   # LOG + adaptive byte/block data path (the full design)


def bytefs_config(
    variant: ByteFSVariant = ByteFSVariant.FULL,
    base: Optional[ExtFSConfig] = None,
) -> ExtFSConfig:
    """The ExtFS feature flags for a ByteFS variant."""
    cfg = base or ExtFSConfig()
    cfg.metadata_byte = True
    cfg.fw_tx = variant in (ByteFSVariant.LOG, ByteFSVariant.FULL)
    cfg.data_byte_policy = variant is ByteFSVariant.FULL
    return cfg


class ByteFS(ExtFS):
    """The full ByteFS file system (host side of the co-design)."""

    name = "bytefs"

    def __init__(
        self,
        device: MSSD,
        variant: ByteFSVariant = ByteFSVariant.FULL,
        config: Optional[ExtFSConfig] = None,
        format_device: bool = True,
    ) -> None:
        self.variant = variant
        super().__init__(
            device, bytefs_config(variant, config), format_device
        )
        if variant is not ByteFSVariant.FULL:
            self.name = f"bytefs-{variant.value}"


def build_stack(
    fs_name: str,
    geometry: Optional[FlashGeometry] = None,
    timing: Optional[TimingModel] = None,
    n_threads: int = 1,
    mssd_config: Optional[MSSDConfig] = None,
    fs_config: Optional[ExtFSConfig] = None,
    log_bytes: Optional[int] = None,
    device_cache_bytes: Optional[int] = None,
    page_cache_pages: Optional[int] = None,
    devcache: Optional[DevCacheConfig] = None,
    faults=None,
    clock: Optional[VirtualClock] = None,
    stats: Optional[TrafficStats] = None,
    instance: str = "",
):
    """Build a (clock, stats, device, fs) tuple for one evaluated system.

    ``fs_name`` is one of: bytefs, bytefs-dual, bytefs-log, ext4, f2fs,
    nova, pmfs.

    ``clock``/``stats`` let multi-device stacks (repro.cluster) share one
    virtual clock across several devices while keeping per-device traffic
    accounting; ``instance`` prefixes the device's resource names so
    contention groups stay distinct in traces.

    Each baseline file system's module is imported by the branch that
    builds it, so a stack compiles only its own file system.
    """
    if fs_name not in FIRMWARE_FOR:
        raise ValueError(f"unknown file system {fs_name!r}")
    clock = clock if clock is not None else VirtualClock(n_threads)
    stats = stats if stats is not None else TrafficStats()
    cfg = mssd_config or MSSDConfig()
    if geometry is not None:
        cfg.geometry = geometry
    if timing is not None:
        cfg.timing = timing
    if instance:
        cfg.instance = instance
    cfg.firmware = FIRMWARE_FOR[fs_name]
    if log_bytes is not None:
        cfg.bytefs_fw = replace(cfg.bytefs_fw, log_bytes=log_bytes)
    if device_cache_bytes is not None:
        cfg.baseline_fw = replace(
            cfg.baseline_fw, cache_bytes=device_cache_bytes
        )
    if devcache is not None:
        cfg.devcache = devcache
    device = MSSD(cfg, clock, stats, faults)
    if page_cache_pages is not None and fs_name in (
        "bytefs", "bytefs-log", "bytefs-dual", "ext4",
    ):
        fs_config = fs_config or ExtFSConfig()
        fs_config.page_cache_pages = page_cache_pages
    if fs_name == "bytefs":
        fs = ByteFS(device, ByteFSVariant.FULL, fs_config)
    elif fs_name == "bytefs-log":
        fs = ByteFS(device, ByteFSVariant.LOG, fs_config)
    elif fs_name == "bytefs-dual":
        fs = ByteFS(device, ByteFSVariant.DUAL, fs_config)
    elif fs_name == "ext4":
        fs = ExtFS(device, fs_config)
    elif fs_name == "f2fs":
        from repro.fs.f2fs import F2FS

        fs = F2FS(device, page_cache_pages=page_cache_pages or 2048)
    elif fs_name == "nova":
        from repro.fs.nova import NovaFS

        fs = NovaFS(device)
    else:
        from repro.fs.pmfs import PMFS

        fs = PMFS(device)
    return clock, stats, device, fs
