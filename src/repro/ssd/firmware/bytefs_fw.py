"""The ByteFS firmware: log-structured SSD DRAM write log (paper §4.3).

Responsibilities:

* byte-interface reads/writes against the write log (64 B entries,
  three-layer index: partition table -> page map -> chunk list);
* block-interface reads merged with logged dirty chunks, block writes
  invalidating logged chunks;
* transaction commit via the TxLog and ``COMMIT(TxID)``;
* Algorithm-1 log cleaning with double buffering (background flush;
  foreground stalls only when both halves are exhausted);
* coordinated caching: no page-granular device cache — flash pages read
  on a byte-interface miss are returned to the host and cached *there*;
* ``RECOVER()``: discard uncommitted entries, flush committed ones in
  TxLog commit order, then reset the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis import fssan
from repro.faults.injector import NULL_INJECTOR
from repro.ftl.ftl import FTL
from repro.nand.image import filled
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import Resource
from repro.ssd.firmware.log_index import ChunkEntry, PageNode
from repro.ssd.firmware.txlog import TxLog
from repro.ssd.firmware.write_log import (
    ENTRY_ALIGN,
    LogFullError,
    LogRegion,
    aligned_entry_size,
    entry_complete,
)
from repro.stats.traffic import Direction, StructKind, TrafficStats
from repro.trace import tracer as trace

_OTHER = StructKind.OTHER
_by_seq = attrgetter("seq")


@dataclass(frozen=True)
class ByteFSFirmwareConfig:
    """Firmware tunables (paper defaults: 256 MB log, 85 % threshold,
    16 MB partitions, 2 MB TxLog — scaled down in tests/benches)."""

    log_bytes: int = 4 << 20
    clean_threshold: float = 0.85
    partition_bytes: int = 1 << 20
    txlog_bytes: int = 64 << 10

    #: the smallest ``log_bytes``: the log is two regions (double
    #: buffering) and a region holds at least one entry
    MIN_LOG_BYTES: ClassVar[int] = 2 * ENTRY_ALIGN

    def __post_init__(self) -> None:
        if self.log_bytes < self.MIN_LOG_BYTES:
            raise ValueError(
                f"log_bytes must be >= {self.MIN_LOG_BYTES} "
                f"(got {self.log_bytes})"
            )


class ByteFSFirmware:
    """Firmware half of the ByteFS co-design."""

    def __init__(
        self,
        ftl: FTL,
        timing: TimingModel,
        clock: VirtualClock,
        stats: TrafficStats,
        config: Optional[ByteFSFirmwareConfig] = None,
    ) -> None:
        self.ftl = ftl
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.config = config or ByteFSFirmwareConfig()
        self.page_size = ftl.geometry.page_size

        half = self.config.log_bytes // 2
        address_space = ftl.geometry.capacity_bytes
        self.regions: List[LogRegion] = [
            LogRegion(
                half, self.page_size, self.config.partition_bytes,
                address_space,
            )
            for _ in range(2)
        ]
        # Regions are reset in place, never replaced: their two indexes
        # are probed on every read.
        self._indexes = tuple(region.index for region in self.regions)
        self.active = 0
        self.txlog = TxLog(self.config.txlog_bytes)
        self.fw_core = Resource("fw-core")
        # Crash-site hooks; MSSD overwrites this with its own injector.
        self.faults = NULL_INJECTOR
        self._seq = 0
        # Live log entries per transaction id (for safe TxLog pruning).
        self._tx_refs: Dict[int, int] = {}
        self.cleanings = 0

    # ------------------------------------------------------------------ #
    # small helpers
    # ------------------------------------------------------------------ #

    def _fw(self, duration_ns: float) -> None:
        """Run a foreground firmware operation on the embedded core."""
        end = self.fw_core.serve(self.clock.now, duration_ns)
        self.clock.advance_to(end)

    def _chunks_for(self, lpa: int) -> List[ChunkEntry]:
        """All logged chunks of a page across both regions, seq-ordered.

        Both indexes are probed first: most pages read have nothing in
        the log, and then no list is built or sorted.
        """
        first, second = self._indexes
        a = first.lookup(lpa)
        b = second.lookup(lpa)
        if a is None and b is None:
            return []
        chunks: List[ChunkEntry] = []
        for node in (a, b):
            if node is not None:
                chunks.extend(node.chunks)
        chunks.sort(key=_by_seq)
        return chunks

    def _merge(self, base: bytes, chunks: List[ChunkEntry]) -> bytes:
        """Apply chunks (already seq-ordered) onto a page image."""
        if not chunks:
            return base
        page = bytearray(base)
        for c in chunks:
            page[c.offset : c.offset + c.length] = c.data
        return bytes(page)

    def _merge_window(
        self,
        base_window: bytes,
        chunks: List[ChunkEntry],
        offset: int,
        length: int,
    ) -> bytes:
        """Apply chunks to just the ``[offset, offset+length)`` window.

        Byte-equal to :meth:`_merge` over the whole page followed by
        slicing, without materializing the full page (byte reads are
        typically a few cachelines out of a 4 KB page).
        """
        if not chunks:
            return base_window
        out = bytearray(base_window)
        end = offset + length
        for c in chunks:
            lo = c.offset if c.offset > offset else offset
            hi = c.end if c.end < end else end
            if lo < hi:
                out[lo - offset : hi - offset] = \
                    c.data[lo - c.offset : hi - c.offset]
        return bytes(out)

    @staticmethod
    def _covers(chunks: List[ChunkEntry], offset: int, length: int) -> bool:
        """Whether the union of chunk ranges covers [offset, offset+length)."""
        if not chunks:
            return False
        intervals = sorted((c.offset, c.end) for c in chunks)
        covered_to = offset
        for lo, hi in intervals:
            if lo > covered_to:
                break
            covered_to = max(covered_to, hi)
            if covered_to >= offset + length:
                return True
        return covered_to >= offset + length

    # ------------------------------------------------------------------ #
    # byte interface
    # ------------------------------------------------------------------ #

    def byte_read(self, lpa: int, offset: int, length: int) -> bytes:
        """Serve an MMIO load: from the log if covered, else from flash.

        Coordinated caching (§4.3): a flash page read on a miss is *not*
        cached in SSD DRAM; the host caches it instead.
        """
        self._fw(self.timing.fw_op_ns)
        chunks = self._chunks_for(lpa)
        if self._covers(chunks, offset, length):
            self.stats.bump("fw_byte_read_log_hits")
            if trace.ENABLED:
                trace.event("firmware", "log_hit", lpa=lpa)
            return self._merge_window(bytes(length), chunks, offset, length)
        self.stats.bump("fw_byte_read_flash_misses")
        if trace.ENABLED:
            trace.event("firmware", "log_miss", lpa=lpa)
        base = self.ftl.read_page(lpa, StructKind.OTHER, background=False)
        return self._merge_window(
            base[offset : offset + length], chunks, offset, length
        )

    def byte_write(
        self,
        lpa: int,
        offset: int,
        data: bytes,
        txid: Optional[int] = None,
    ) -> None:
        """Append an MMIO store to the write log and index it.

        One frame on the common path: the space rule is tested and the
        firmware core charged inline, and with no injector armed the
        entry is appended without a crash-site call.
        """
        if not data:
            return
        length = len(data)
        if offset + length > self.page_size:
            raise ValueError("byte write crosses a page boundary")
        region = self.regions[self.active]
        if not (
            aligned_entry_size(length) <= region.capacity - region.used
            and region.used / region.capacity < self.config.clean_threshold
        ):
            self._switch_and_clean(length)
        clock = self.clock
        clock.advance_to(
            self.fw_core.serve(clock.now, self.timing.fw_append_ns)
        )
        if self.faults is NULL_INJECTOR:
            self._append(lpa, offset, data, txid, length)
        else:
            # 8 B words: the log lives in SSD DRAM behind the controller's
            # memory bus, so a power cut can tear an entry mid-word-stream.
            self.faults.site(
                "fw.log_append",
                partial(self._append, lpa, offset, data, txid),
                length,
                atom=8,
            )

    def _append(
        self,
        lpa: int,
        offset: int,
        data: bytes,
        txid: Optional[int],
        persisted: int,
    ) -> None:
        """Log and index a store whose first ``persisted`` bytes landed."""
        length = len(data)
        if not entry_complete(persisted, length):
            # The entry's trailing TxID word never made it to DRAM; the
            # §4.7 recovery scan would detect and skip it, so a torn
            # append is as if it had never happened.
            self.stats.bump("fw_torn_appends_discarded")
            return
        region = self.regions[self.active]
        log_off = region.consume(length)
        self._seq += 1
        region.index.insert(
            lpa, ChunkEntry(offset, length, log_off, txid, self._seq,
                            bytes(data))
        )
        if txid is not None:
            self._tx_refs[txid] = self._tx_refs.get(txid, 0) + 1
        self.stats.bump("fw_log_appends")

    # ------------------------------------------------------------------ #
    # block interface
    # ------------------------------------------------------------------ #

    def block_read(self, lpa: int) -> bytes:
        """NVMe read: flash page merged with any logged dirty chunks.

        An unlogged page is handed back as the object the FTL returned.
        """
        self._fw(self.timing.fw_op_ns)
        base = self.ftl.read_page(lpa, _OTHER, False, True)
        chunks = self._chunks_for(lpa)
        if not chunks:
            return base
        self.stats.bump("fw_block_read_merges")
        return self._merge(base, chunks)

    def block_read_many(self, lpas: List[int]) -> List[bytes]:
        """NVMe multi-page read: flash reads stripe across channels."""
        self._fw(self.timing.fw_op_ns * len(lpas))
        bases = self.ftl.read_pages(lpas, StructKind.OTHER, background=False)
        out = []
        for lpa, base in zip(lpas, bases):
            chunks = self._chunks_for(lpa)
            if chunks:
                self.stats.bump("fw_block_read_merges")
            out.append(self._merge(base, chunks))
        return out

    def block_write_many(
        self,
        pages: Iterable[Tuple[int, bytes]],
        kind: StructKind,
        n_pages: int = 1,
    ) -> None:
        """NVMe block writes: invalidate logged chunks, then write through
        the FTL write buffer (host page-cache writebacks are always up to
        date, §4.4).

        One firmware entry for the whole run.  ``pages`` is pulled one
        ``(lpa, data)`` at a time and handed on to the FTL's loop the
        same way, so the per-page sequence (the caller's DMA, fw-core
        charge, log invalidation, write-buffer admission) is preserved
        exactly: buffer stalls interleave with the charges, so collapsing
        them would change simulated timing.  ``n_pages`` > 1 marks the
        pages of one multi-page command (one trace span); otherwise each
        page is a command of its own.
        """
        self.ftl.write_pages(self._invalidating(pages, n_pages <= 1), kind)

    def _invalidating(
        self, pages: Iterable[Tuple[int, bytes]], span_each: bool
    ) -> Iterator[Tuple[int, bytes]]:
        """The firmware's share of each block write, ahead of the FTL's."""
        clock = self.clock
        serve = self.fw_core.serve
        fw_op_ns = self.timing.fw_op_ns
        indexes = self._indexes
        for lpa, data in pages:
            _sp = trace.begin("firmware", "block_write", lpa=lpa) \
                if span_each and trace.ENABLED else None
            clock.advance_to(serve(clock.now, fw_op_ns))
            for index in indexes:
                node = index.remove_page(lpa)
                if node is not None:
                    self._drop_refs(node.chunks)
                    self.stats.bump(
                        "fw_log_invalidations", len(node.chunks)
                    )
            yield lpa, data
            if _sp is not None:
                trace.end(_sp)

    def trim(self, lpa: int) -> None:
        for region in self.regions:
            node = region.index.remove_page(lpa)
            if node is not None:
                self._drop_refs(node.chunks)
        self.ftl.trim(lpa)

    def trim_many(self, lpa: int, n_pages: int) -> None:
        """Batched trim: one firmware entry, one FTL map crossing.

        Pages are invalidated in ascending order (matching n calls to
        :meth:`trim`) because ``_drop_refs`` can prune the TxLog and
        pruning decisions depend on cumulative state.
        """
        for p in range(lpa, lpa + n_pages):
            for region in self.regions:
                node = region.index.remove_page(p)
                if node is not None:
                    self._drop_refs(node.chunks)
        self.ftl.trim_many(lpa, n_pages)

    # ------------------------------------------------------------------ #
    # transactions
    # ------------------------------------------------------------------ #

    def commit(self, txid: int) -> None:
        """Handle COMMIT(TxID): append a 4 B entry to the TxLog (§4.3)."""
        self._fw(self.timing.fw_append_ns)
        self.txlog.commit(txid)
        self.stats.bump("fw_commits")

    def is_committed(self, entry: ChunkEntry) -> bool:
        return entry.txid is None or self.txlog.is_committed(entry.txid)

    def _drop_refs(self, chunks: List[ChunkEntry]) -> None:
        for c in chunks:
            if c.txid is not None and c.txid in self._tx_refs:
                self._tx_refs[c.txid] -= 1
                if self._tx_refs[c.txid] <= 0:
                    del self._tx_refs[c.txid]

    # ------------------------------------------------------------------ #
    # log cleaning (Algorithm 1) with double buffering
    # ------------------------------------------------------------------ #

    def _switch_and_clean(self, length: int) -> None:
        """Make room for an entry the active region has no space for
        (``byte_write`` tested the space rule): switch halves and clean
        the full one in the background."""
        other = self.regions[1 - self.active]
        if other.is_cleaning:
            # Both halves exhausted: the foreground must wait for the
            # background flush of the other half to drain.
            if self.clock.now < other.cleaning_until:
                self.stats.bump("fw_log_clean_stalls")
                if trace.ENABLED:
                    trace.note_wait(
                        "fw-log-clean",
                        other.cleaning_until - self.clock.now,
                        0.0,
                    )
                self.clock.advance_to(other.cleaning_until)
            other.is_cleaning = False
        old_idx = self.active
        self.active = 1 - self.active
        self._clean_region(old_idx)
        new_active = self.regions[self.active]
        if aligned_entry_size(length) > new_active.free:
            raise LogFullError(
                f"entry of {length} B cannot fit in a "
                f"{new_active.capacity} B log region"
            )

    def _clean_region(self, idx: int) -> None:
        """Flush one region to flash (Algorithm 1), in the background."""
        region = self.regions[idx]
        self.faults.point("fw.clean_begin")
        self.cleanings += 1
        self.stats.bump("fw_log_cleanings")
        start_busy = self.ftl.channels.max_busy_until()
        for node in list(region.index.pages()):
            self._flush_page_node(node)
        # Power loss here leaves flushed pages on flash AND their entries
        # in the log; recovery re-flushes them — idempotent by design.
        self.faults.point("fw.clean_reset")
        region.reset()
        region.is_cleaning = True
        region.cleaning_until = max(
            self.ftl.channels.max_busy_until(), start_busy
        )
        self._prune_txlog()

    def _flush_page_node(self, node: PageNode) -> None:
        """Algorithm 1 body for one modified page."""
        committed = [c for c in node.chunks if self.is_committed(c)]
        uncommitted = [c for c in node.chunks if not self.is_committed(c)]
        # Uncommitted entries migrate to the (new) active log region.
        for c in uncommitted:
            active = self.regions[self.active]
            c.log_off = active.consume(c.length)
            active.index.insert(node.lpa, c)
        if not committed:
            return
        # Partial update: the old flash page must be loaded first.
        if not self._covers(committed, 0, self.page_size):
            base = self.ftl.read_page(
                node.lpa, StructKind.OTHER, background=True
            )
            self.stats.bump("fw_clean_partial_reads")
        else:
            base = filled(0, self.page_size)
        committed.sort(key=lambda c: (self.txlog.commit_position(c.txid)
                                      if c.txid is not None else -1, c.seq))
        if fssan.ENABLED:
            fssan.check_commit_ordered(
                [
                    (
                        self.txlog.commit_position(c.txid)
                        if c.txid is not None
                        else -1,
                        c.seq,
                    )
                    for c in committed
                ]
            )
        merged = self._merge(base, committed)

        def _flush(k: int) -> None:
            image = merged
            if 0 < k < len(merged):
                # Torn flash program: leading sectors hold the new image,
                # the rest whatever the mapped page held before.  The log
                # still has every entry (the region resets only after the
                # whole clean), so recovery rewrites this page anyway.
                old = self.ftl.read_page(
                    node.lpa, StructKind.OTHER, background=True
                )
                image = merged[:k] + old[k:]
            self.ftl.write_page(
                node.lpa, image, StructKind.OTHER, background=True
            )
            self.stats.bump("fw_clean_page_flushes")

        self.faults.site("fw.clean_flush", _flush, len(merged), atom=512)

    def _prune_txlog(self) -> None:
        """Drop TxLog entries whose transactions have no live log entries.

        Uses the shadow-buffer swap (:meth:`TxLog.replace`) so a crash
        mid-prune can't surface a TxLog with some committed entries
        already gone — that would silently uncommit their data.
        """
        live = set(self._tx_refs)
        remaining = [t for t in self.txlog.committed_in_order() if t in live]
        if fssan.ENABLED:
            fssan.check_txlog_prune(
                (t for t in sorted(live) if self.txlog.is_committed(t)),
                remaining,
            )
        self.txlog.replace(remaining)

    def force_clean(self) -> None:
        """Flush both halves now (used by unmount/sync)."""
        for idx in (self.active, 1 - self.active):
            if self.regions[idx].used or self.regions[idx].index.n_chunks:
                self._clean_region(idx)
        for region in self.regions:
            if region.is_cleaning:
                self.clock.advance_to(
                    max(self.clock.now, region.cleaning_until)
                )
                region.is_cleaning = False
        self.ftl.drain_write_buffer()

    # ------------------------------------------------------------------ #
    # power loss and recovery
    # ------------------------------------------------------------------ #

    def power_fail(self) -> None:
        """Battery-backed DRAM: the log, index, and TxLog survive as-is."""
        self.stats.bump("fw_power_failures")

    def recover(self) -> Dict[str, float]:  # repro: allow[CS001]
        """Handle RECOVER(): scan the log, discard uncommitted entries,
        flush committed ones in commit order, reset log and TxLog (§4.7).

        Returns recovery statistics including the simulated duration.
        Recovery runs after the sweep driver disarms the injector, so its
        device writes are deliberately not crash sites (CS001 suppressed).
        """
        t0 = self.clock.now
        scanned = 0
        discarded = 0
        flushed_pages = 0
        # Scan cost: every data entry's trailing TxID is checked.
        for region in self.regions:
            for node in region.index.pages():
                scanned += len(node.chunks)
        self._fw(self.timing.fw_op_ns * max(1, scanned))
        # Flush committed entries page by page, honouring commit order.
        all_nodes: Dict[int, List[ChunkEntry]] = {}
        for region in self.regions:
            for node in region.index.pages():
                for c in node.chunks:
                    if self.is_committed(c):
                        all_nodes.setdefault(node.lpa, []).append(c)
                    else:
                        discarded += 1
        for lpa, chunks in sorted(all_nodes.items()):
            chunks.sort(
                key=lambda c: (
                    self.txlog.commit_position(c.txid)
                    if c.txid is not None
                    else -1,
                    c.seq,
                )
            )
            if fssan.ENABLED:
                fssan.check_commit_ordered(
                    [
                        (
                            self.txlog.commit_position(c.txid)
                            if c.txid is not None
                            else -1,
                            c.seq,
                        )
                        for c in chunks
                    ]
                )
            if not self._covers(chunks, 0, self.page_size):
                base = self.ftl.read_page(lpa, StructKind.OTHER, background=False)
            else:
                base = filled(0, self.page_size)
            merged = self._merge(base, chunks)
            # Log cleaning read-merge-writes one lpa at a time by design.
            self.ftl.write_page(  # repro: allow[PERF001]
                lpa, merged, StructKind.OTHER, background=False)
            flushed_pages += 1
        self.ftl.drain_write_buffer()
        for region in self.regions:
            region.reset()
        self.txlog.clear()
        self._tx_refs.clear()
        return {
            "scanned_entries": scanned,
            "discarded_entries": discarded,
            "flushed_pages": flushed_pages,
            "duration_ns": self.clock.now - t0,
        }

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def log_utilization(self) -> float:
        return self.regions[self.active].utilization()

    def index_memory_bytes(self) -> int:
        return sum(r.index.memory_bytes() for r in self.regions)
