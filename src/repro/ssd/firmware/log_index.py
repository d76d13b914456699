"""The three-layer index over the firmware write log (paper §4.3, Fig 3).

Layer 1: a partition table dividing the SSD logical address space into
fixed-size partitions (16 MB in the paper); the partition index is just
``LPA // pages_per_partition``.

Layer 2: one ordered map per partition, keyed by LPA.  A key is present
iff some bytes of that flash page currently live in the log region.  The
paper uses a skip list here to bound lookup latency on the embedded
core; the simulator charges index work as the constants ``fw_op_ns`` and
``fw_append_ns``, so only the map's contents and its ascending iteration
order reach any output, and a dict sorted on iteration gives both
exactly.

Layer 3: per page, a chunk list ordered by in-page offset.  Each chunk
entry records the in-page offset, the offset of the data in the log
region, the length, and the transaction id (paper: offset 1 B, log offset
4 B, length 4 B, TxID 4 B).
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from repro.analysis import fssan

#: Bytes of index metadata per chunk entry (paper Fig 3: 1 + 4 + 4 + 4).
CHUNK_ENTRY_BYTES = 13
#: Approximate bytes per layer-2 node (key + pointers on the ARM core).
PAGE_NODE_BYTES = 32

_offset_seq = attrgetter("offset", "seq")


class ChunkEntry:
    """One logged write to a page: ``data[offset:offset+length]``.

    A plain ``__slots__`` class: the firmware allocates one per logged
    store, so instance dicts would dominate allocation churn.
    ``ByteFSFirmware._append`` builds it without calling ``__init__``,
    so a slot added here is set there too.
    """

    __slots__ = ("offset", "length", "log_off", "txid", "seq", "data", "end")

    def __init__(
        self,
        offset: int,          # byte offset within the flash page
        length: int,
        log_off: int,         # offset of the payload inside the log region
        txid: Optional[int],  # None = non-transactional
        seq: int,             # global append sequence, orders overlaps
        data: bytes,          # payload (kept with the entry)
    ) -> None:
        self.offset = offset
        self.length = length
        self.log_off = log_off
        self.txid = txid
        self.seq = seq
        self.data = data
        # offset/length never change after construction (log cleaning
        # only relocates log_off), so the end bound is precomputed.
        self.end = offset + length


class PageNode:
    """Layer-3 node: all logged chunks of one flash page."""

    __slots__ = ("lpa", "chunks")

    def __init__(self, lpa: int, chunks: List[ChunkEntry]) -> None:
        self.lpa = lpa
        #: ordered by (offset, seq)
        self.chunks = chunks


class LogIndex:
    """Partition table -> per-partition page maps -> chunk lists."""

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int,
        partition_bytes: int = 16 << 20,
    ) -> None:
        if partition_bytes % page_size != 0:
            raise ValueError("partition size must be page aligned")
        self.page_size = page_size
        self.pages_per_partition = partition_bytes // page_size
        self.n_partitions = max(
            1, -(-capacity_bytes // partition_bytes)
        )  # ceil div
        # A partition's map stays, even once emptied, until clear().
        self._partitions: Dict[int, Dict[int, PageNode]] = {}
        self._n_chunks = 0

    # ------------------------------------------------------------------ #

    def insert(self, lpa: int, entry: ChunkEntry) -> None:
        part = lpa // self.pages_per_partition
        if fssan.ENABLED:
            fssan.check_log_chunk(
                lpa,
                entry.offset,
                entry.length,
                self.page_size,
                part,
                self.n_partitions,
            )
        pages = self._partitions.get(part)
        if pages is None:
            pages = self._partitions[part] = {}
        node = pages.get(lpa)
        if node is None:
            pages[lpa] = PageNode(lpa, [entry])
        else:
            insort(node.chunks, entry, key=_offset_seq)
        self._n_chunks += 1
        if fssan.ENABLED:
            self._check()

    def lookup(self, lpa: int) -> Optional[PageNode]:
        pages = self._partitions.get(lpa // self.pages_per_partition)
        if pages is None:
            return None
        return pages.get(lpa)

    def remove_page(self, lpa: int) -> Optional[PageNode]:
        pages = self._partitions.get(lpa // self.pages_per_partition)
        if pages is None:
            return None
        node = pages.pop(lpa, None)
        if node is not None:
            self._n_chunks -= len(node.chunks)
            if fssan.ENABLED:
                self._check()
        return node

    def pages(self) -> Iterator[PageNode]:
        """Iterate every indexed page in LPA order (used by log cleaning)."""
        for part in sorted(self._partitions):
            pages = self._partitions[part]
            for lpa in sorted(pages):
                yield pages[lpa]

    def clear(self) -> None:
        self._partitions.clear()
        self._n_chunks = 0

    def _check(self) -> None:
        fssan.check_log_index(
            self._partitions, self.pages_per_partition, self._n_chunks
        )

    # ------------------------------------------------------------------ #

    @property
    def n_chunks(self) -> int:
        return self._n_chunks

    @property
    def n_pages(self) -> int:
        return sum(len(pages) for pages in self._partitions.values())

    def memory_bytes(self) -> int:
        """Approximate SSD-DRAM footprint of the index (paper: ~21 MB for a
        fully utilized 256 MB log)."""
        return (
            self._n_chunks * CHUNK_ENTRY_BYTES
            + self.n_pages * PAGE_NODE_BYTES
            + len(self._partitions) * PAGE_NODE_BYTES
        )
