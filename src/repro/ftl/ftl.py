"""The flash translation layer shared by both firmware variants."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import fssan
from repro.ftl.mapping import PageMap
from repro.nand.chip import FlashArray, FlashError
from repro.nand.geometry import FlashGeometry
from repro.nand.image import filled
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import ChannelArray
from repro.stats.traffic import Direction, StructKind, TrafficStats
from repro.trace import tracer as trace

_OTHER = StructKind.OTHER
_READ = Direction.READ


@dataclass(frozen=True)
class FTLConfig:
    """FTL tunables (paper §4.9: 16 MB write buffer, greedy GC)."""

    write_buffer_pages: int = 16          # 16 MB in the paper, scaled down
    gc_free_block_low: int = 2            # per-channel GC trigger watermark
    gc_reserved_blocks: int = 1           # blocks GC always keeps in reserve


class _BlockState:
    """Per-block bookkeeping: first PPA, write pointer, valid-page count."""

    __slots__ = ("block_id", "base", "next_page", "valid")

    def __init__(self, block_id: int, base: int) -> None:
        self.block_id = block_id
        self.base = base
        self.next_page = 0
        self.valid = 0


class FTL:
    """Out-of-place page-mapped FTL with background drain and greedy GC."""

    def __init__(
        self,
        geometry: FlashGeometry,
        flash: FlashArray,
        channels: ChannelArray,
        timing: TimingModel,
        clock: VirtualClock,
        stats: TrafficStats,
        config: Optional[FTLConfig] = None,
    ) -> None:
        self.geometry = geometry
        self.flash = flash
        self.channels = channels
        self.timing = timing
        self.clock = clock
        self.stats = stats
        self.config = config or FTLConfig()
        self.page_map = PageMap(geometry.total_pages)

        # Per-channel free block lists and active (partially written) blocks.
        self._free_blocks: List[List[int]] = [[] for _ in range(len(channels))]
        self._active: List[Optional[_BlockState]] = [None] * len(channels)
        # Every written, not yet erased block: by block id (None = free),
        # and per channel in the order the blocks were opened, which is
        # the order greedy GC breaks valid-count ties in.
        self._blocks: List[Optional[_BlockState]] = (
            [None] * geometry.total_blocks
        )
        self._ch_blocks: List[Dict[int, _BlockState]] = [
            {} for _ in range(len(channels))
        ]
        self._next_channel = 0

        for block_id in range(geometry.total_blocks):
            ch = geometry.channel_of_block(block_id)
            self._free_blocks[ch].append(block_id)

        # Write-buffer occupancy: completion times of in-flight drains,
        # kept as a min-heap; _inflight_max tracks the latest completion
        # (valid whenever the heap is non-empty: the max entry can only
        # be popped once every entry is poppable).
        self._inflight: List[float] = []
        self._inflight_max = 0.0
        self._in_gc = False
        # Hot-path bindings: geometry/timing are frozen and the
        # collaborators are never replaced after construction.  (Bind
        # sparingly: past 29 instance attributes CPython 3.11 stops
        # sharing the class's attribute keys and every ``self.x`` on
        # this object gets slower, which oltp_gc measures;
        # tests/test_ftl_arrays.py pins the count.)
        self._flash_write_ns = timing.flash_write_ns
        self._flash_read_ns = timing.flash_read_ns
        self._page_size = geometry.page_size
        # One bound Resource.serve per channel (occupy is the same
        # queueing rule): a flash op is one call into the timeline.
        self._ch_serve = [res.serve for res in channels.channels]
        self._record_flash = stats.record_flash
        self._pm_bind = self.page_map.bind
        self._pm_lookup = self.page_map.lookup
        self._program_page = flash.program_page
        self._flash_read_page = flash.read_page
        self._invalidate_page = flash.invalidate_page
        self._wb_capacity = self.config.write_buffer_pages

        self.gc_runs = 0
        self.gc_migrated_pages = 0

    # ------------------------------------------------------------------ #
    # public API (called by firmware)
    # ------------------------------------------------------------------ #

    def read_page(
        self,
        lpa: int,
        kind: StructKind = _OTHER,
        background: bool = False,
        as_run: bool = False,
    ) -> bytes:
        """Read the flash page backing ``lpa`` (zeros if never written).

        ``as_run`` marks the page as a whole one-page read command (an
        NVMe block read, a prefetch): it is traced as the ``read_pages``
        run of one it is, so one histogram holds every command read.
        """
        ppa = self._pm_lookup(lpa)
        self._record_flash(kind, _READ, self._page_size)
        if ppa is None:
            # Unwritten logical page: no flash op needed, data is zeros.
            return filled(0, self._page_size)
        ch = self.geometry.channel_of(ppa)
        read_ns = self._flash_read_ns
        clock = self.clock
        end = self._ch_serve[ch](clock.now, read_ns)
        if trace.ENABLED:
            trace.span_at(
                "nand", "flash_read", end - read_ns, end,
                background=background, ch=ch,
            )
        if not background:
            clock.advance_to(end)
        return self._flash_read_page(ppa)

    def read_pages(
        self,
        lpas: List[int],
        kind: StructKind = _OTHER,
        background: bool = False,
    ) -> List[bytes]:
        """Read several pages in parallel: all flash reads are issued from
        the same start time and stripe across channels; the caller waits
        only for the slowest one."""
        clock = self.clock
        start = clock.now
        page_size = self._page_size
        read_ns = self._flash_read_ns
        record_flash = self._record_flash
        lookup = self._pm_lookup
        channel_of = self.geometry.channel_of
        serves = self._ch_serve
        flash_read_page = self._flash_read_page
        datas: List[bytes] = []
        max_end = start
        for lpa in lpas:
            record_flash(kind, _READ, page_size)
            ppa = lookup(lpa)
            if ppa is None:
                datas.append(filled(0, page_size))
                continue
            ch = channel_of(ppa)
            end = serves[ch](start, read_ns)
            if trace.ENABLED:
                trace.span_at(
                    "nand", "flash_read", end - read_ns, end,
                    background=background, ch=ch,
                )
            if end > max_end:
                max_end = end
            datas.append(flash_read_page(ppa))
        if not background:
            clock.advance_to(max_end)
        return datas

    def write_page(
        self,
        lpa: int,
        data: bytes,
        kind: StructKind = StructKind.OTHER,
        background: bool = True,
    ) -> None:
        """Write one page out of place: a run of one."""
        self.write_pages(((lpa, data),), kind, background)

    def write_pages(
        self,
        pages: Iterable[Tuple[int, bytes]],
        kind: StructKind = StructKind.OTHER,
        background: bool = True,
    ) -> None:
        """Write a run of ``(lpa, data)`` pages out of place, in order.

        By default the program itself happens in the background through the
        write buffer (the foreground stalls only if the buffer is full),
        matching how both firmware variants hide flash program latency.

        ``pages`` is pulled one page at a time, after the previous page
        is bound, so a generator may do the caller's per-page work (and
        charge its simulated time) between two programs.
        """
        clock = self.clock
        inflight = self._inflight
        capacity = self._wb_capacity
        write_ns = self._flash_write_ns
        page_size = self._page_size
        pages_per_block = self.geometry.pages_per_block
        actives = self._active
        n_channels = len(actives)
        serves = self._ch_serve
        # Local bindings keep the calls spelled by their real names (the
        # crash-site lint resolves callers by bare name).
        program_page = self._program_page
        bind = self._pm_bind
        blocks = self._blocks
        invalidate_page = self._invalidate_page
        record_flash = self._record_flash
        for lpa, data in pages:
            _sp = trace.begin("ftl", "write_page", lpa=lpa) \
                if trace.ENABLED else None
            try:
                if len(inflight) >= capacity:
                    self._reserve_buffer_slot()
                # _allocate's common case, inline: the open block of
                # the channel whose turn it is has room; opening a block
                # (and GC) happens once per block.
                ch = self._next_channel
                block = actives[ch]
                if block is not None and block.next_page < pages_per_block:
                    self._next_channel = (ch + 1) % n_channels
                    ppa = block.base + block.next_page
                    block.next_page += 1
                else:
                    ppa, ch, block = self._allocate()
                end = serves[ch](clock.now, write_ns)
                if trace.ENABLED:
                    trace.span_at(
                        "nand", "flash_program", end - write_ns, end,
                        background=background, ch=ch,
                    )
                heappush(inflight, end)
                if end > self._inflight_max:
                    self._inflight_max = end
                if not background:
                    clock.advance_to(end)
                # One program per page is what a run of pages is.
                program_page(ppa, data)  # repro: allow[PERF001]
                old = bind(lpa, ppa)
                if old is not None:
                    state = blocks[old // pages_per_block]
                    if state is not None and state.valid > 0:
                        state.valid -= 1
                    invalidate_page(old)
                block.valid += 1
                record_flash(kind, Direction.WRITE, page_size)
            finally:
                if _sp is not None:
                    trace.end(_sp)

    def trim(self, lpa: int) -> None:
        """Drop the mapping for ``lpa`` (file system freed the block)."""
        ppa = self.page_map.unbind(lpa)
        if ppa is not None:
            self._invalidate_ppa(ppa)

    def trim_many(self, lpa: int, n_pages: int) -> None:
        """Drop the mappings of ``n_pages`` consecutive LPAs in one call
        (one map crossing per batched device trim)."""
        unbind = self.page_map.unbind
        invalidate = self._invalidate_ppa
        for p in range(lpa, lpa + n_pages):
            ppa = unbind(p)
            if ppa is not None:
                invalidate(ppa)

    def is_mapped(self, lpa: int) -> bool:
        return lpa in self.page_map

    def drain_write_buffer(self) -> None:
        """Barrier: wait for every in-flight flash program to complete."""
        if self._inflight:
            self.clock.advance_to(self._inflight_max)
            self._inflight.clear()
            self._inflight_max = 0.0

    def free_page_estimate(self) -> int:
        total = 0
        for ch, blocks in enumerate(self._free_blocks):
            total += len(blocks) * self.geometry.pages_per_block
            active = self._active[ch]
            if active is not None:
                total += self.geometry.pages_per_block - active.next_page
        return total

    def gauges(self) -> Dict[str, float]:
        """FTL telemetry gauges (sampled via :meth:`MSSD.gauges`)."""
        return {
            "gc_runs": self.gc_runs,
            "gc_migrated_pages": self.gc_migrated_pages,
            "free_pages": self.free_page_estimate(),
            "write_buffer_inflight": len(self._inflight),
        }

    # ------------------------------------------------------------------ #
    # allocation and GC
    # ------------------------------------------------------------------ #

    def _allocate(self) -> Tuple[int, int, _BlockState]:
        """Pick the next PPA, round-robining channels for parallelism;
        returns it with its channel and its block's state."""
        actives = self._active
        n_channels = len(actives)
        pages_per_block = self.geometry.pages_per_block
        for _ in range(n_channels):
            ch = self._next_channel
            self._next_channel = (ch + 1) % n_channels
            block = actives[ch]
            if block is None or block.next_page >= pages_per_block:
                block = self._open_block(ch)
                if block is None:
                    continue
            ppa = block.base + block.next_page
            block.next_page += 1
            return ppa, ch, block
        raise FlashError("device out of space: GC could not free any block")

    def _open_block(self, ch: int) -> Optional[_BlockState]:
        """Channel ``ch`` has no open block with room: collect garbage
        if its free blocks run low, then open the next free one (None
        when there is none left)."""
        free = self._free_blocks[ch]
        if not self._in_gc and len(free) <= self.config.gc_free_block_low:
            self._garbage_collect(ch)
        if not free:
            return None
        block_id = free.pop(0)
        block = _BlockState(
            block_id, block_id * self.geometry.pages_per_block
        )
        self._active[ch] = block
        self._blocks[block_id] = block
        self._ch_blocks[ch][block_id] = block
        return block

    def _invalidate_ppa(self, ppa: int) -> None:
        state = self._blocks[ppa // self.geometry.pages_per_block]
        if state is not None and state.valid > 0:
            state.valid -= 1
        self._invalidate_page(ppa)

    def _garbage_collect(self, ch: int) -> None:
        """Greedy GC on one channel: victim = fewest valid pages."""
        victim = self._pick_victim(ch)
        if victim is None:
            return
        self._in_gc = True
        try:
            self._collect_block(ch, victim)
        finally:
            self._in_gc = False

    def _collect_block(self, ch: int, victim: "_BlockState") -> None:
        self.gc_runs += 1
        base = victim.base
        clock = self.clock
        read_ns = self._flash_read_ns
        write_ns = self._flash_write_ns
        page_size = self._page_size
        pages_per_block = self.geometry.pages_per_block
        actives = self._active
        n_channels = len(actives)
        serves = self._ch_serve
        serve_victim = serves[ch]
        flash_read_page = self._flash_read_page
        program_page = self._program_page
        bind = self._pm_bind
        record_flash = self._record_flash
        bump = self.stats.bump
        # Migrate still-valid pages (background reads + writes).  The
        # owners are read up front: a migration rebinds only the page
        # it moves, to a PPA outside the victim.
        owners = self.page_map.reverse_range(base, base + pages_per_block)
        for ppa, lpa in enumerate(owners, base):
            if lpa is None:
                continue
            end = serve_victim(clock.now, read_ns)
            if trace.ENABLED:
                trace.span_at(
                    "nand", "flash_read", end - read_ns, end,
                    background=True, ch=ch,
                )
            data = flash_read_page(ppa)
            record_flash(_OTHER, _READ, page_size)
            bump("gc_page_migrations")
            self.gc_migrated_pages += 1
            # Re-write through normal allocation (as in write_pages) on
            # any channel but the victim's being-erased block.
            new_ch = self._next_channel
            block = actives[new_ch]
            if block is not None and block.next_page < pages_per_block:
                self._next_channel = (new_ch + 1) % n_channels
                new_ppa = block.base + block.next_page
                block.next_page += 1
            else:
                new_ppa, new_ch, block = self._allocate()
            end = serves[new_ch](clock.now, write_ns)
            if trace.ENABLED:
                trace.span_at(
                    "nand", "flash_program", end - write_ns, end,
                    background=True, ch=new_ch,
                )
            # GC migration rebinds each page to a fresh ppa chosen one
            # step at a time; relocation has no batched form.
            program_page(new_ppa, data)  # repro: allow[PERF001]
            bind(lpa, new_ppa)
            block.valid += 1
            record_flash(_OTHER, Direction.WRITE, page_size)
        if fssan.ENABLED:
            fssan.check_gc_victim_clear(
                self.page_map.reverse_range(base, base + pages_per_block),
                base,
                victim.block_id,
            )
        erase_ns = self.timing.flash_erase_ns
        end = serve_victim(clock.now, erase_ns)
        if trace.ENABLED:
            trace.span_at(
                "nand", "erase", end - erase_ns, end,
                background=True, ch=ch,
            )
        self.flash.erase_block(victim.block_id)
        self._blocks[victim.block_id] = None
        del self._ch_blocks[ch][victim.block_id]
        self._free_blocks[ch].append(victim.block_id)
        bump("gc_runs")

    def _pick_victim(self, ch: int) -> Optional[_BlockState]:
        """The first block with the fewest valid pages, in block-open
        order, among the channel's written blocks but its open one."""
        active = self._active[ch]
        best: Optional[_BlockState] = None
        for state in self._ch_blocks[ch].values():
            if state is active:
                continue  # never collect the open block
            if best is None or state.valid < best.valid:
                best = state
        return best

    # ------------------------------------------------------------------ #
    # write buffer
    # ------------------------------------------------------------------ #

    def _reserve_buffer_slot(self) -> None:
        """The write buffer looks full: retire drained programs, then
        stall the foreground thread until a slot frees up."""
        inflight = self._inflight
        # Drop entries that have already drained at this thread's time.
        now = self.clock.now
        while inflight and inflight[0] <= now:
            heappop(inflight)
        if not inflight:
            self._inflight_max = 0.0
        while len(inflight) >= self._wb_capacity:
            earliest = inflight[0]
            if trace.ENABLED and earliest > self.clock.now:
                trace.note_wait(
                    "ftl-write-buffer", earliest - self.clock.now, 0.0
                )
            self.clock.advance_to(earliest)
            self.stats.bump("write_buffer_stalls")
            now = self.clock.now
            while inflight and inflight[0] <= now:
                heappop(inflight)
            if not inflight:
                self._inflight_max = 0.0
