"""The three-layer index over the firmware write log (paper §4.3, Fig 3).

Layer 1: a partition table dividing the SSD logical address space into
fixed-size partitions (16 MB in the paper); the partition index is just
``LPA // pages_per_partition``.

Layer 2: one skip list per partition, keyed by LPA.  A key is present iff
some bytes of that flash page currently live in the log region.

Layer 3: per page, a chunk list ordered by in-page offset.  Each chunk
entry records the in-page offset, the offset of the data in the log
region, the length, and the transaction id (paper: offset 1 B, log offset
4 B, length 4 B, TxID 4 B).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.analysis import fssan
from repro.sim.rng import make_rng
from repro.ssd.firmware.skiplist import SkipList

#: Bytes of index metadata per chunk entry (paper Fig 3: 1 + 4 + 4 + 4).
CHUNK_ENTRY_BYTES = 13
#: Approximate bytes per skip-list node (key + pointers on the ARM core).
SKIPLIST_NODE_BYTES = 32


class ChunkEntry:
    """One logged write to a page: ``data[offset:offset+length]``.

    A plain ``__slots__`` class: the firmware allocates one per logged
    store, so instance dicts would dominate allocation churn.
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

    def __init__(
        self, lpa: int, chunks: Optional[List[ChunkEntry]] = None
    ) -> None:
        self.lpa = lpa
        self.chunks: List[ChunkEntry] = chunks if chunks is not None else []

    def add(self, entry: ChunkEntry) -> None:
        """Insert keeping the list ordered by (offset, seq)."""
        chunks = self.chunks
        key = (entry.offset, entry.seq)
        lo, hi = 0, len(chunks)
        while lo < hi:
            mid = (lo + hi) >> 1
            c = chunks[mid]
            if (c.offset, c.seq) > key:
                hi = mid
            else:
                lo = mid + 1
        chunks.insert(lo, entry)

    def bytes_logged(self) -> int:
        return sum(c.length for c in self.chunks)


class LogIndex:
    """Partition table -> skip lists -> chunk lists."""

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int,
        partition_bytes: int = 16 << 20,
        seed: int = 0x10D3,
    ) -> None:
        if partition_bytes % page_size != 0:
            raise ValueError("partition size must be page aligned")
        self.page_size = page_size
        self.pages_per_partition = partition_bytes // page_size
        self.n_partitions = max(
            1, -(-capacity_bytes // partition_bytes)
        )  # ceil div
        self._partitions: Dict[int, SkipList] = {}
        self._seed = seed
        self._n_chunks = 0

    # ------------------------------------------------------------------ #

    def _partition_of(self, lpa: int) -> int:
        return lpa // self.pages_per_partition

    def _skiplist(self, lpa: int, create: bool = False) -> Optional[SkipList]:
        part = self._partition_of(lpa)
        sl = self._partitions.get(part)
        if sl is None and create:
            # Derive each partition's level RNG from (seed, partition) so
            # streams are independent of partition creation order.
            sl = SkipList(make_rng(self._seed, f"logindex:{part}"))
            self._partitions[part] = sl
        return sl

    def insert(self, lpa: int, entry: ChunkEntry) -> None:
        if fssan.ENABLED:
            fssan.check_log_chunk(
                lpa,
                entry.offset,
                entry.length,
                self.page_size,
                self._partition_of(lpa),
                self.n_partitions,
            )
        sl = self._skiplist(lpa, create=True)
        node = sl.get(lpa)
        if node is None:
            node = PageNode(lpa)
            sl.insert(lpa, node)
        node.add(entry)
        self._n_chunks += 1

    def lookup(self, lpa: int) -> Optional[PageNode]:
        sl = self._partitions.get(lpa // self.pages_per_partition)
        if sl is None:
            return None
        return sl.get(lpa)

    def lookup_range(self, lpa_lo: int, lpa_hi: int) -> Iterator[PageNode]:
        """All indexed pages with lpa_lo <= lpa < lpa_hi.

        Range lookups spanning several partitions are broken into one
        lookup per partition (paper §4.3).
        """
        part_lo = self._partition_of(lpa_lo)
        part_hi = self._partition_of(max(lpa_lo, lpa_hi - 1))
        for part in range(part_lo, part_hi + 1):
            sl = self._partitions.get(part)
            if sl is None:
                continue
            for _key, node in sl.range(lpa_lo, lpa_hi):
                yield node

    def remove_page(self, lpa: int) -> Optional[PageNode]:
        sl = self._skiplist(lpa)
        if sl is None:
            return None
        node = sl.get(lpa)
        if node is not None:
            sl.delete(lpa)
            self._n_chunks -= len(node.chunks)
        return node

    def pages(self) -> Iterator[PageNode]:
        """Iterate every indexed page in LPA order (used by log cleaning)."""
        for part in sorted(self._partitions):
            for _key, node in self._partitions[part].items():
                yield node

    def clear(self) -> None:
        self._partitions.clear()
        self._n_chunks = 0

    # ------------------------------------------------------------------ #

    @property
    def n_chunks(self) -> int:
        return self._n_chunks

    @property
    def n_pages(self) -> int:
        return sum(len(sl) for sl in self._partitions.values())

    def memory_bytes(self) -> int:
        """Approximate SSD-DRAM footprint of the index (paper: ~21 MB for a
        fully utilized 256 MB log)."""
        return (
            self._n_chunks * CHUNK_ENTRY_BYTES
            + self.n_pages * SKIPLIST_NODE_BYTES
            + len(self._partitions) * SKIPLIST_NODE_BYTES
        )
