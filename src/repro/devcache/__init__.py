"""`repro.devcache` — tiered device-DRAM page-frame cache for the
CXL.mem path, with pluggable eviction (LRU / CLOCK / hot-cold) and a
speculative stride prefetcher.  See docs/CACHING.md.

Host code (CLI, cluster, bench) imports only :class:`DevCacheConfig`;
the cache itself is device-internal (the layering lint fences off the
rest of this package from host modules).
"""

from repro.devcache.cache import DevCacheConfig, DeviceCache, StridePrefetcher
from repro.devcache.policy import (
    ClockPolicy,
    EvictionPolicy,
    EVICTION_POLICY_NAMES,
    HotColdPolicy,
    LRUPolicy,
    make_policy,
)

__all__ = [
    "DevCacheConfig",
    "DeviceCache",
    "EvictionPolicy",
    "EVICTION_POLICY_NAMES",
    "LRUPolicy",
    "ClockPolicy",
    "HotColdPolicy",
    "make_policy",
    "StridePrefetcher",
]
