"""`repro.devcache` — tiered device-DRAM page-frame cache for the
CXL.mem path, with pluggable eviction (LRU / CLOCK / hot-cold) and a
speculative stride prefetcher.  See docs/CACHING.md.

Host code (CLI, cluster, bench) imports only :class:`DevCacheConfig`,
from :mod:`repro.devcache.config`; the cache itself is device-internal
(the layering lint fences off the rest of this package from host
modules).  Only the config loads with the package: the cache and its
policies load on first use, when :class:`~repro.ssd.device.MSSD` builds
a cache, so a stack without one never compiles them.
"""

from repro._lazy import lazy_exports
from repro.devcache.config import DevCacheConfig

__getattr__ = lazy_exports(globals(), {
    "repro.devcache.cache": ("DeviceCache", "StridePrefetcher"),
    "repro.devcache.policy": (
        "ClockPolicy", "EvictionPolicy", "EVICTION_POLICY_NAMES",
        "HotColdPolicy", "LRUPolicy", "make_policy",
    ),
})

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
