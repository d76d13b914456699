"""FSSan: an opt-in runtime invariant sanitizer for the storage stack.

Contract checks asserting firmware/FTL/simulation invariants while a
simulation runs.  Every check is gated on :data:`ENABLED`, which is off
by default, so production runs pay one attribute load and a falsy branch
per instrumented operation.  Enable with ``REPRO_SANITIZE=1`` in the
environment, or programmatically::

    from repro.analysis import fssan
    with fssan.sanitized():
        run_workload(...)

Invariant classes (each check belongs to exactly one):

* ``FSSAN-LOG``   — write-log entries are 64 B-aligned, positive-length,
  in-page, partition-bounded, and never overcommit the log region.
* ``FSSAN-INDEX`` — every write-log index node sits under its own LPA in
  its own partition, every chunk list is strictly (offset, seq)-ordered,
  and the chunk count matches the chunk lists.
* ``FSSAN-FTL``   — L2P/P2L maps stay mutually consistent, a physical
  page is never owned by two logical pages, and GC never erases a block
  that still holds a live (mapped) page.
* ``FSSAN-TX``    — the TxLog's order/position views agree, flushes
  apply committed chunks in commit order, and pruning never drops a
  committed transaction that still has live log entries.
* ``FSSAN-CLOCK`` — virtual-clock and resource timelines only move
  forward: no negative or NaN durations, busy-until never rewinds.
* ``FSSAN-QUEUE`` — per-tenant serving-queue accounting balances:
  every submitted request is served, still pending, rejected by
  admission control, or dropped — nothing is double-counted or lost.

A violated invariant raises :class:`SanitizerError` (an
``AssertionError`` subclass) carrying the invariant class id.  Passing
checks bump :data:`COUNTS` so tests can verify the contracts are
actually exercised, not just defined.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence, Tuple

#: Invariant class ids.
LOG = "FSSAN-LOG"
INDEX = "FSSAN-INDEX"
FTL = "FSSAN-FTL"
TX = "FSSAN-TX"
CLOCK = "FSSAN-CLOCK"
QUEUE = "FSSAN-QUEUE"

ALL_CLASSES = (LOG, INDEX, FTL, TX, CLOCK, QUEUE)

#: Master switch read by every instrumented call site.
ENABLED = os.environ.get("REPRO_SANITIZE", "").lower() in ("1", "true", "yes", "on")

#: Checks passed per invariant class (only counted while enabled).
COUNTS: Dict[str, int] = {}

#: Full write-log index validation is O(chunks); above this many chunks
#: only every :data:`_INDEX_STRIDE`-th mutation pays for it.
_INDEX_FULL_CHECK_MAX = 256
_INDEX_STRIDE = 32
_index_ops = 0


class SanitizerError(AssertionError):
    """A firmware/FTL/simulation invariant was violated."""

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


def enable() -> None:
    global ENABLED
    ENABLED = True


def disable() -> None:
    global ENABLED
    ENABLED = False


def reset_counts() -> None:
    COUNTS.clear()


@contextmanager
def sanitized():
    """Enable the sanitizer for the duration of the block."""
    global ENABLED
    prev = ENABLED
    ENABLED = True
    try:
        yield
    finally:
        ENABLED = prev


def _ok(invariant: str) -> None:
    COUNTS[invariant] = COUNTS.get(invariant, 0) + 1


def _trip(invariant: str, message: str) -> None:
    raise SanitizerError(invariant, message)


# ---------------------------------------------------------------------- #
# FSSAN-LOG — firmware write log
# ---------------------------------------------------------------------- #

def check_log_append(log_off: int, size: int, used: int, capacity: int) -> None:
    """A log-region append stayed aligned and within capacity."""
    if size <= 0 or size % 64 != 0:
        _trip(LOG, f"log entry size {size} B is not a positive multiple of 64 B")
    if log_off < 0 or log_off % 64 != 0 or log_off >= capacity:
        _trip(LOG, f"log offset {log_off} not 64 B-aligned inside [0, {capacity})")
    if used > capacity:
        _trip(LOG, f"log region overcommitted: {used} B used of {capacity} B")
    _ok(LOG)


def check_log_chunk(
    lpa: int,
    offset: int,
    length: int,
    page_size: int,
    partition: int,
    n_partitions: int,
) -> None:
    """An indexed chunk is in-page and lands in a valid partition."""
    if lpa < 0:
        _trip(LOG, f"chunk indexed under negative LPA {lpa}")
    if not 0 <= partition < n_partitions:
        _trip(
            LOG,
            f"LPA {lpa} maps to partition {partition}, outside "
            f"[0, {n_partitions}) — write log is not partition-bounded",
        )
    if length <= 0 or offset < 0 or offset + length > page_size:
        _trip(
            LOG,
            f"chunk [{offset}, {offset + length}) outside the "
            f"{page_size} B page",
        )
    _ok(LOG)


# ---------------------------------------------------------------------- #
# FSSAN-INDEX — write-log index structure
# ---------------------------------------------------------------------- #

def check_log_index(page_maps: dict, pages_per_partition: int,
                    n_chunks: int) -> None:
    """Each node sits under its own LPA in partition ``lpa //
    pages_per_partition``, each chunk list is strictly (offset, seq)-
    increasing, and ``n_chunks`` is the sum of the chunk-list lengths.

    One entry may be listed twice in a row: cleaning the *active* region
    (``force_clean``) migrates its uncommitted entries into the region
    being cleaned, which the reset that ends the cleaning then drops.

    ``page_maps`` maps partition -> LPA -> page node.  Full validation
    is O(chunks); a larger index is checked every
    :data:`_INDEX_STRIDE`-th mutation.
    """
    global _index_ops
    _index_ops += 1
    if n_chunks > _INDEX_FULL_CHECK_MAX and _index_ops % _INDEX_STRIDE != 0:
        return
    total = 0
    for part, pages in page_maps.items():
        for lpa, node in pages.items():
            if node.lpa != lpa or lpa // pages_per_partition != part:
                _trip(
                    INDEX,
                    f"node of LPA {node.lpa} indexed as LPA {lpa} in "
                    f"partition {part}",
                )
            chunks = node.chunks
            for a, b in zip(chunks, chunks[1:]):
                ka, kb = (a.offset, a.seq), (b.offset, b.seq)
                if kb < ka or (kb == ka and b is not a):
                    _trip(
                        INDEX,
                        f"LPA {lpa} chunk list not (offset, seq)-ordered: "
                        f"{kb} after {ka}",
                    )
            total += len(chunks)
    if total != n_chunks:
        _trip(INDEX, f"chunk lists hold {total} chunks but n_chunks "
                     f"says {n_chunks}")
    _ok(INDEX)


# ---------------------------------------------------------------------- #
# FSSAN-FTL — mapping consistency and GC liveness
# ---------------------------------------------------------------------- #

def check_map_bind(l2p: dict, p2l: list, lpa: int, ppa: int) -> None:
    """After a bind, the two maps agree on the bound pair (``p2l`` is
    the PPA-indexed reverse list; the caller range-checked ``ppa``)."""
    if l2p.get(lpa) != ppa or p2l[ppa] != lpa:
        _trip(
            FTL,
            f"L2P/P2L disagree after bind({lpa} -> {ppa}): "
            f"l2p={l2p.get(lpa)} p2l={p2l[ppa]}",
        )
    _ok(FTL)


def check_map_steal(p2l: list, lpa: int, ppa: int) -> None:
    """A bind must never silently steal a PPA live under another LPA."""
    owner = p2l[ppa]
    if owner is not None and owner != lpa:
        _trip(
            FTL,
            f"PPA {ppa} rebound to LPA {lpa} while still live under "
            f"LPA {owner} — a live page was overwritten without remap",
        )
    _ok(FTL)


def check_gc_victim_clear(owners: list, base_ppa: int, block_id: int) -> None:
    """Before erase, no page of the victim block may still be mapped.

    ``owners`` is the victim's slice of the reverse map, one LPA or
    ``None`` per page from ``base_ppa`` up.
    """
    for ppa, lpa in enumerate(owners, base_ppa):
        if lpa is not None:
            _trip(
                FTL,
                f"GC erasing block {block_id} while PPA {ppa} is still "
                f"live (mapped by LPA {lpa}) — live page lost without remap",
            )
    _ok(FTL)


# ---------------------------------------------------------------------- #
# FSSAN-TX — transaction-log consistency and flush ordering
# ---------------------------------------------------------------------- #

def check_txlog_entry(order: List[int], positions: Dict[int, int], txid: int) -> None:
    """After a commit, the order list and position map agree."""
    if len(order) != len(positions):
        _trip(
            TX,
            f"TxLog order ({len(order)} entries) and position map "
            f"({len(positions)}) diverged at commit({txid})",
        )
    pos = positions.get(txid)
    if pos is None or pos >= len(order) or order[pos] != txid:
        _trip(TX, f"TxID {txid} committed at position {pos} but order disagrees")
    _ok(TX)


def check_commit_ordered(keys: Sequence[Tuple[int, int]]) -> None:
    """Chunks about to be merged are in (commit position, seq) order."""
    for a, b in zip(keys, keys[1:]):
        if b < a:
            _trip(
                TX,
                f"flush applies chunks out of commit order: {b} after {a}",
            )
    _ok(TX)


def check_txlog_prune(live_committed: Iterable[int], remaining: Iterable[int]) -> None:
    """Pruning kept every committed transaction with live log entries."""
    kept = set(remaining)
    for txid in live_committed:
        if txid not in kept:
            _trip(
                TX,
                f"TxLog prune dropped committed TxID {txid} which still "
                "has live log entries — its data would be uncommitted",
            )
    _ok(TX)


# ---------------------------------------------------------------------- #
# FSSAN-CLOCK — timeline monotonicity
# ---------------------------------------------------------------------- #

def check_resource_serve(
    name: str, old_busy: float, duration: float, end: float
) -> None:
    """A resource timeline only moves forward."""
    if duration != duration or duration < 0:  # NaN or negative
        _trip(CLOCK, f"resource {name!r} served a {duration} ns request")
    if end != end or end < old_busy:
        _trip(
            CLOCK,
            f"resource {name!r} busy-until rewound from {old_busy} to {end}",
        )
    _ok(CLOCK)


def check_clock_elapsed(max_seen: float, times_max: float) -> None:
    """The elapsed watermark covers every thread timeline.

    ``elapsed_ns`` returns ``_max_seen`` directly instead of re-scanning
    the per-thread timelines; this cross-check asserts the watermark is
    a true upper bound whenever the sanitizer is on.
    """
    if max_seen != max_seen:  # NaN
        _trip(CLOCK, "elapsed watermark is NaN")
    if max_seen < times_max:
        _trip(
            CLOCK,
            f"elapsed watermark {max_seen} fell behind the furthest "
            f"thread timeline {times_max}",
        )
    _ok(CLOCK)


# ---------------------------------------------------------------------- #
# FSSAN-QUEUE — serving-layer queue accounting (repro.cluster)
# ---------------------------------------------------------------------- #

def check_queue_accounting(
    tenant: str,
    submitted: int,
    served: int,
    pending: int,
    rejected: int,
    dropped: int = 0,
    lost_to_crash: int = 0,
) -> None:
    """A tenant's request ledger balances: nothing lost, nothing forged.

    ``submitted`` counts arrivals that reached admission; each must be
    in exactly one of the served / pending / rejected / dropped /
    lost-to-crash buckets.  ``lost_to_crash`` counts requests in flight
    when their shard powered off mid-serve — the one legitimate way a
    request disappears without being served, and it must still be
    accounted, not silently vanish.
    """
    counts = (submitted, served, pending, rejected, dropped, lost_to_crash)
    if any(c < 0 for c in counts):
        _trip(
            QUEUE,
            f"tenant {tenant!r} has a negative queue counter: "
            f"submitted={submitted} served={served} pending={pending} "
            f"rejected={rejected} dropped={dropped} "
            f"lost_to_crash={lost_to_crash}",
        )
    if submitted != served + pending + rejected + dropped + lost_to_crash:
        _trip(
            QUEUE,
            f"tenant {tenant!r} queue ledger out of balance: "
            f"submitted={submitted} != served={served} + pending={pending} "
            f"+ rejected={rejected} + dropped={dropped} "
            f"+ lost_to_crash={lost_to_crash}",
        )
    _ok(QUEUE)


def check_clock_advance(old_now: float, new_now: float, max_seen: float) -> None:
    """A per-thread timeline never goes backwards, NaN, or past-max loss."""
    if new_now != new_now:  # NaN
        _trip(CLOCK, "thread timeline advanced to NaN")
    if new_now < old_now:
        _trip(CLOCK, f"thread timeline rewound from {old_now} to {new_now}")
    if max_seen != max_seen or max_seen < new_now:
        _trip(
            CLOCK,
            f"elapsed watermark {max_seen} fell behind thread time {new_now}",
        )
    _ok(CLOCK)
