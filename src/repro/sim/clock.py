"""Virtual time with one timeline per simulated application thread.

The workload runner interleaves operations from N logical threads.  Before
issuing an operation it calls :meth:`VirtualClock.switch` to select the
thread's timeline; every component below it then charges time through
:meth:`advance` / :meth:`advance_to`.  Shared device resources serialize
concurrent threads through :class:`~repro.sim.resources.Resource` objects,
which is where contention (and therefore parallel speedup or slowdown)
comes from.

All times are nanoseconds, held as floats.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from repro.analysis import fssan

NSEC = 1.0
USEC = 1_000.0
MSEC = 1_000_000.0
SEC = 1_000_000_000.0


class VirtualClock:
    """A set of per-thread virtual timelines sharing one epoch.

    ``now`` refers to the currently selected thread's time.  ``elapsed``
    is the wall-clock span of the whole simulation: the maximum thread
    time reached so far.

    ``now`` is a plain attribute (not a property): it is the single most
    read value in the simulator, and every mutator below maintains the
    invariant ``now == _times[_cur]``.  Treat it as read-only.
    """

    __slots__ = ("_times", "_cur", "_max_seen", "_ready", "now")

    def __init__(self, n_threads: int = 1) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self._times = [0.0] * n_threads
        self._cur = 0
        self._max_seen = 0.0
        self.now = 0.0
        # Lazy min-heap over (time, tid) backing next_thread().  advance()
        # never touches it; stale entries are revalidated on pop, which is
        # sound because timelines are monotone between resets.
        self._ready: List[Tuple[float, int]] = [
            (0.0, tid) for tid in range(n_threads)
        ]

    @property
    def n_threads(self) -> int:
        return len(self._times)

    @property
    def current_thread(self) -> int:
        return self._cur

    @property
    def elapsed_ns(self) -> float:
        """Wall-clock span: the furthest any thread has progressed.

        ``_max_seen`` is the single source of truth — every mutation of
        ``_times`` maintains it, so no rescan of the timelines is needed.
        """
        if fssan.ENABLED:
            fssan.check_clock_elapsed(self._max_seen, max(self._times))
        return self._max_seen

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_ns / SEC

    def switch(self, tid: int) -> None:
        """Select thread ``tid``'s timeline for subsequent charges."""
        if not 0 <= tid < len(self._times):
            raise IndexError(f"thread id {tid} out of range")
        self._cur = tid
        self.now = self._times[tid]

    def advance(self, ns: float) -> float:
        """Charge ``ns`` nanoseconds to the current thread; return new now."""
        if ns < 0:
            raise ValueError(f"cannot advance by negative time {ns}")
        old = self.now
        t = old + ns
        self._times[self._cur] = t
        self.now = t
        if t > self._max_seen:
            self._max_seen = t
        if fssan.ENABLED:
            fssan.check_clock_advance(old, t, self._max_seen)
        return t

    def advance_to(self, t_ns: float) -> float:
        """Move the current thread forward to ``t_ns`` (no-op if in the past)."""
        old = self.now
        if t_ns > old:
            self._times[self._cur] = t_ns
            self.now = t_ns
            if t_ns > self._max_seen:
                self._max_seen = t_ns
        if fssan.ENABLED:
            if t_ns != t_ns:  # NaN compares false above and would be lost
                raise fssan.SanitizerError(
                    fssan.CLOCK, "advance_to(NaN) would silently no-op"
                )
            fssan.check_clock_advance(old, self.now, self._max_seen)
        return self.now

    def time_of(self, tid: int) -> float:
        return self._times[tid]

    @property
    def timelines(self) -> List[float]:
        """Every thread's time by thread id: the live list, for a loop
        that reads them many times over (the serve kernel).  Treat it as
        read-only, like ``now``."""
        return self._times

    def next_thread(self) -> int:
        """Return the id of the thread with the smallest timeline.

        The workload runner uses this to pick which logical thread issues
        its next operation, giving a fair event-driven interleaving.

        Backed by a lazy min-heap: stale entries (the thread advanced
        since its entry was pushed) are replaced with the live time and
        re-sifted; an entry whose time matches the live timeline is the
        true minimum, because every other entry only *under*-estimates
        its thread's time.  Ties break toward the lowest tid, exactly
        like the linear scan this replaces.
        """
        ready = self._ready
        times = self._times
        if len(ready) > 2 * len(times):
            # Compaction backstop: more stale entries than live timelines
            # (possible if a client pushed refreshed entries instead of
            # replacing in place).  Rebuild from the live times so the
            # heap stays O(n_threads) and pops stop churning on staleness.
            ready[:] = [(t, tid) for tid, t in enumerate(times)]
            heapq.heapify(ready)
        while True:
            t, tid = ready[0]
            live = times[tid]
            if t == live:
                return tid
            heapq.heapreplace(ready, (live, tid))

    def sync_all(self) -> float:
        """Barrier: bring every thread up to the maximum timeline."""
        return self.sync_to(max(self._times))

    def sync_to(self, t_ns: float) -> float:
        """Barrier to an externally supplied instant ``t_ns``.

        Every timeline jumps to ``t_ns`` — the cross-process analogue of
        :meth:`sync_all`: shard workers adopt the cluster-wide epoch
        computed by the parent from all shards' local maxima.  ``t_ns``
        may not rewind any thread (monotonicity is what makes the lazy
        heap sound).
        """
        if t_ns < max(self._times):
            raise ValueError(
                f"sync_to({t_ns}) would rewind a timeline "
                f"(max is {max(self._times)})"
            )
        times = self._times
        for tid in range(len(times)):
            times[tid] = t_ns
        self.now = t_ns
        if t_ns > self._max_seen:
            self._max_seen = t_ns
        # A barrier staleness-invalidates every heap entry at once;
        # rebuilding here is cheaper than n heapreplace churns on the
        # next next_thread() pass.  Equal keys in tid order already
        # satisfy the heap invariant.
        self._ready[:] = [(t_ns, tid) for tid in range(len(times))]
        return t_ns

    def reset(self) -> None:
        for tid in range(len(self._times)):
            self._times[tid] = 0.0
        self._max_seen = 0.0
        self._cur = 0
        self.now = 0.0
        # Timelines rewound: the lazy heap's monotonicity assumption no
        # longer covers old entries, so rebuild it.
        self._ready = [(0.0, tid) for tid in range(len(self._times))]
