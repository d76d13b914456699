"""Traffic and latency accounting for the ByteFS reproduction."""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate, chain, islice, repeat
from operator import sub
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)


class StructKind(enum.Enum):
    """The file-system data structure a transfer belongs to (paper Table 3)."""

    SUPERBLOCK = "superblock"
    BITMAP = "bitmap"          # block list + inode list
    INODE = "inode"
    DENTRY = "dentry"
    DATA_PTR = "data_ptr"
    DATA = "data"
    JOURNAL = "journal"
    OTHER = "other"

    # Members are singletons, so identity hashing is equality-consistent
    # and skips Enum.__hash__'s name lookup on every stats-dict update.
    __hash__ = object.__hash__

    @property
    def is_metadata(self) -> bool:
        return self not in (StructKind.DATA,)


METADATA_KINDS = tuple(k for k in StructKind if k.is_metadata)


class Direction(enum.Enum):
    READ = "read"
    WRITE = "write"

    __hash__ = object.__hash__


class Interface(enum.Enum):
    BYTE = "byte"    # PCIe MMIO / CXL.mem loads and stores
    BLOCK = "block"  # NVMe block commands

    __hash__ = object.__hash__


class TrafficStats:
    """Aggregates host<->SSD traffic, flash traffic, and app-issued bytes."""

    def __init__(self) -> None:
        # (kind, direction, interface) -> bytes
        self.host_ssd: Dict[Tuple[StructKind, Direction, Interface], int] = (
            defaultdict(int)
        )
        # (kind, direction) -> bytes of flash page traffic
        self.flash: Dict[Tuple[StructKind, Direction], int] = defaultdict(int)
        # direction -> bytes issued by the application through the FS API
        self.app: Dict[Direction, int] = defaultdict(int)
        # free-form event counters (cache hits, log cleanings, GC runs, ...)
        self.counters: Dict[str, int] = defaultdict(int)
        # fault-injection counters (crash sites reached, crashes injected,
        # torn writes applied) — kept separate from ``counters`` so sweep
        # bookkeeping never pollutes traffic-derived metrics
        self.fault_counters: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record_host_ssd(
        self,
        kind: StructKind,
        direction: Direction,
        interface: Interface,
        nbytes: int,
    ) -> None:
        if nbytes < 0:
            raise ValueError("negative transfer size")
        self.host_ssd[(kind, direction, interface)] += nbytes

    def record_flash(
        self, kind: StructKind, direction: Direction, nbytes: int
    ) -> None:
        if nbytes < 0:
            raise ValueError("negative transfer size")
        self.flash[(kind, direction)] += nbytes

    def record_app(self, direction: Direction, nbytes: int) -> None:
        self.app[direction] += nbytes

    def bump(self, counter: str, n: int = 1) -> None:
        self.counters[counter] += n

    def bump_fault(self, counter: str, n: int = 1) -> None:
        self.fault_counters[counter] += n

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def host_ssd_bytes(
        self,
        kinds: Optional[Iterable[StructKind]] = None,
        direction: Optional[Direction] = None,
        interface: Optional[Interface] = None,
    ) -> int:
        kinds_set = set(kinds) if kinds is not None else None
        total = 0
        for (k, d, i), n in self.host_ssd.items():
            if kinds_set is not None and k not in kinds_set:
                continue
            if direction is not None and d != direction:
                continue
            if interface is not None and i != interface:
                continue
            total += n
        return total

    def flash_bytes(
        self,
        kinds: Optional[Iterable[StructKind]] = None,
        direction: Optional[Direction] = None,
    ) -> int:
        kinds_set = set(kinds) if kinds is not None else None
        total = 0
        for (k, d), n in self.flash.items():
            if kinds_set is not None and k not in kinds_set:
                continue
            if direction is not None and d != direction:
                continue
            total += n
        return total

    def metadata_bytes(
        self, direction: Direction, interface: Optional[Interface] = None
    ) -> int:
        return self.host_ssd_bytes(METADATA_KINDS, direction, interface)

    def data_bytes(
        self, direction: Direction, interface: Optional[Interface] = None
    ) -> int:
        return self.host_ssd_bytes((StructKind.DATA,), direction, interface)

    def amplification(self, direction: Direction) -> float:
        """Device traffic over app-issued traffic (paper Table 2)."""
        app = self.app.get(direction, 0)
        if app == 0:
            return float("nan")
        return self.host_ssd_bytes(direction=direction) / app

    def breakdown(self, direction: Direction) -> Dict[StructKind, int]:
        """Per-structure host<->SSD bytes for one direction (Figure 1)."""
        out: Dict[StructKind, int] = defaultdict(int)
        for (k, d, _i), n in self.host_ssd.items():
            if d == direction:
                out[k] += n
        return dict(out)

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict copy of every aggregate (for reset round-trips)."""
        return {
            "host_ssd": dict(self.host_ssd),
            "flash": dict(self.flash),
            "app": dict(self.app),
            "counters": dict(self.counters),
            "fault_counters": dict(self.fault_counters),
        }

    def to_json(self) -> Dict[str, Dict]:
        """Like :meth:`snapshot` but JSON-serialisable: enum-tuple keys
        become stable colon-joined strings (``"data:write:byte"``), sorted
        for deterministic output."""
        host_ssd = {
            f"{k.value}:{d.value}:{i.value}": n
            for (k, d, i), n in self.host_ssd.items()
        }
        flash = {
            f"{k.value}:{d.value}": n for (k, d), n in self.flash.items()
        }
        app = {d.value: n for d, n in self.app.items()}
        return {
            "host_ssd": dict(sorted(host_ssd.items())),
            "flash": dict(sorted(flash.items())),
            "app": dict(sorted(app.items())),
            "counters": dict(sorted(self.counters.items())),
            "fault_counters": dict(sorted(self.fault_counters.items())),
        }

    def reset(self) -> None:
        self.host_ssd.clear()
        self.flash.clear()
        self.app.clear()
        self.counters.clear()
        self.fault_counters.clear()


def _doubles() -> array:
    """An empty sample series: packed C doubles, 8 B a sample (and raw
    bytes in a pickle) where a list of floats costs 32."""
    return array("d")


#: how many leading samples decide whether a series is counted or sorted
PROBE_SAMPLES = 4096
#: the probe counts this many at a time, and stops past a third distinct
PROBE_STEP = 512


class SortedRuns:
    """A sorted sample series as runs of equal values: ``values`` holds
    the distinct values ascending, ``ends[k]`` the number of samples up
    to and including run ``k``.  ``len``, indexing and iteration read it
    as the sorted series itself."""

    __slots__ = ("values", "ends")

    def __init__(self, counts: Dict[float, int]) -> None:
        self.values = array("d", sorted(counts))
        self.ends = array(
            "q", accumulate(map(counts.__getitem__, self.values))
        )

    def __len__(self) -> int:
        return self.ends[-1]

    def __getitem__(self, i: int) -> float:
        if i < 0:
            i += self.ends[-1]
        return self.values[bisect_right(self.ends, i)]

    def __iter__(self) -> Iterator[float]:
        ends = self.ends
        return chain.from_iterable(
            map(repeat, self.values, map(sub, ends, chain((0,), ends)))
        )


#: a series in ascending order: packed doubles, or runs of equal values
Sorted = Union[array, SortedRuns]


def _sort_series(samples: array) -> Sorted:
    """``samples`` in ascending order, as a :class:`SortedRuns` table
    when the series repeats its values (simulated latencies do), else
    as packed doubles.

    A counted series has one float object alive at a time instead of
    one per sample in ``sorted``'s list.
    """
    counts = _probe(samples)
    if counts is not None:
        counts.update(islice(samples, PROBE_SAMPLES, None))
        if _exact(counts):
            return SortedRuns(counts)
    del counts  # free the table before the sort's list peaks
    return array("d", sorted(samples))


def _probe(samples: array) -> Optional[Counter]:
    """The value counts of the first :data:`PROBE_SAMPLES` samples, or
    None when more than a third of them are distinct or they hold 0.0
    or NaN.  Counting stops as soon as a third is passed, so a series
    that is sorted never grows the table of a fully distinct probe."""
    probe = min(len(samples), PROBE_SAMPLES)
    counts: Counter = Counter()
    for start in range(0, probe, PROBE_STEP):
        counts.update(samples[start:start + PROBE_STEP])
        if 3 * len(counts) > probe:
            return None
    return counts if _exact(counts) else None


def _exact(counts: Dict[float, int]) -> bool:
    """No key of ``counts`` stands for samples with other bits: ``==``
    cannot tell -0.0 from 0.0 or one NaN's bits from another's, and a
    table would report the first one seen for all of them."""
    return 0.0 not in counts and all(v == v for v in counts)


class LatencyRecorder:
    """Records per-operation latencies and reports mean / percentiles.

    The sorted order is computed lazily and cached per op with the
    sample count it was built from, so a burst of percentile queries —
    e.g. rendering a report with p50/p95/p99 per op — sorts each sample
    series once instead of once per query, and recording only appends.
    Samples only grow (:meth:`record`, :meth:`merge`) until
    :meth:`reset` clears both, so a count that differs is a stale cache.
    """

    def __init__(self) -> None:
        self._samples: Dict[str, array] = defaultdict(_doubles)
        # op -> (the sample count it was built from, the sorted series)
        self._sorted_cache: Dict[str, Tuple[int, Sorted]] = {}

    def record(self, op: str, latency_ns: float) -> None:
        self._samples[op].append(latency_ns)

    def record_pair(self, op: str, also: str, latency_ns: float) -> None:
        """:meth:`record` under ``op``, then under ``also``."""
        samples = self._samples
        samples[op].append(latency_ns)
        samples[also].append(latency_ns)

    def count(self, op: str) -> int:
        return len(self._samples.get(op, ()))

    def mean(self, op: str) -> float:
        samples = self._samples.get(op)
        if not samples:
            return float("nan")
        return sum(samples) / len(samples)

    def _sorted(self, op: str) -> Optional[Sorted]:
        samples = self._samples.get(op)
        if not samples:
            return None
        cache = self._sorted_cache
        if op in cache:
            if cache[op][0] == len(samples):
                return cache[op][1]
            del cache[op]  # free the stale order before building the new one
        ordered = _sort_series(samples)
        cache[op] = (len(samples), ordered)
        return ordered

    @staticmethod
    def _percentile_of(ordered: Sequence[float], pct: float) -> float:
        if len(ordered) == 1:
            return ordered[0]
        rank = (pct / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def percentile(self, op: str, pct: float) -> float:
        ordered = self._sorted(op)
        if ordered is None:
            return float("nan")
        return self._percentile_of(ordered, pct)

    def summary(self, op: str) -> Dict[str, float]:
        """count/mean/p50/p95/p99 in one pass over one cached sort."""
        ordered = self._sorted(op)
        if ordered is None:
            nan = float("nan")
            return {"count": 0, "mean": nan, "p50": nan,
                    "p95": nan, "p99": nan}
        return {
            "count": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "p50": self._percentile_of(ordered, 50),
            "p95": self._percentile_of(ordered, 95),
            "p99": self._percentile_of(ordered, 99),
        }

    def ops(self) -> List[str]:
        return sorted(self._samples)

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold ``other``'s samples into this recorder.

        Merging preserves the sample multiset per op, and every reported
        quantity (:meth:`summary`, :meth:`percentile`) is computed over
        the *sorted* samples — so any grouping of per-shard recorders
        merges to bit-identical summaries, which is what lets the
        serving layer's reducer write the same document from one
        shard's fragment as from several workers'.
        """
        for op in sorted(other._samples):
            samples = other._samples[op]
            if samples:
                self._samples[op].extend(samples)
        return self

    def reset(self) -> None:
        self._samples.clear()
        self._sorted_cache.clear()
