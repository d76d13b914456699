"""The device-DRAM cache's tunables, apart from the cache itself.

Host code (CLI, cluster, bench) and :class:`~repro.ssd.device.MSSDConfig`
import this module alone; a stack loads :mod:`repro.devcache.cache` only
when it builds a cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class DevCacheConfig:
    """Device-DRAM cache tunables (CLI: ``--devcache/--evict/--prefetch``).

    Frozen and picklable: the config crosses the process boundary inside
    :class:`~repro.cluster.config.ServeConfig` for ``repro serve
    --workers N``.
    """

    cache_bytes: int = 1 << 20
    policy: str = "lru"
    prefetch: bool = False
    prefetch_degree: int = 2
    #: write-back starts above ``high`` dirty fraction, stops at ``low``
    dirty_high_watermark: float = 0.75
    dirty_low_watermark: float = 0.50
    #: hotcold policy: hot-queue share of frames / promotion reuse distance
    hot_fraction: float = 0.5
    hot_distance: int = 16

    def echo(self) -> Dict:
        """The CLI-settable fields, as result documents echo them."""
        return {
            "cache_bytes": self.cache_bytes,
            "policy": self.policy,
            "prefetch": self.prefetch,
        }
