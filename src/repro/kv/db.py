"""The LSM key-value store: WAL + memtable + leveled SSTables.

Mirrors the RocksDB behaviours that matter to the file system:

* every write batch appends to the WAL and fdatasyncs it —
  small synchronous appends, ByteFS's sweet spot;
* memtable flushes and compactions produce large sequential writes;
* gets hit the memtable, then L0 newest-first, then L1 by key range,
  with Bloom filters avoiding most useless table reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fs.errors import FileNotFound
from repro.fs.vfs import BaseFileSystem, O_APPEND, O_CREAT, O_RDWR
from repro.kv.memtable import Memtable
from repro.kv.sstable import SSTableReader, SSTableWriter

_WAL_REC = "<HBI"
#: compaction cuts L1 tables at this size
TARGET_SST_BYTES = 512 << 10


@dataclass
class KVConfig:
    """LSM tuning knobs (scaled-down RocksDB defaults)."""

    memtable_bytes: int = 256 << 10
    l0_compaction_trigger: int = 4


class KVStore:
    """A single-process LSM store on top of a simulated file system."""

    def __init__(
        self,
        fs: BaseFileSystem,
        root: str = "/kv",
        config: Optional[KVConfig] = None,
    ) -> None:
        self.fs = fs
        self.root = root
        self.cfg = config or KVConfig()
        self.memtable = Memtable()
        self.l0: List[SSTableReader] = []   # newest first
        self.l1: List[SSTableReader] = []   # sorted, non-overlapping
        self._next_file = 0
        self._wal_fd: Optional[int] = None
        if not fs.exists(root):
            fs.mkdir(root)
        self._open_wal(truncate=not fs.exists(f"{root}/wal"))
        self.flushes = 0
        self.compactions = 0

    # ------------------------------------------------------------------ #
    # WAL
    # ------------------------------------------------------------------ #

    def _wal_path(self) -> str:
        return f"{self.root}/wal"

    def _open_wal(self, truncate: bool) -> None:
        flags = O_CREAT | O_RDWR | O_APPEND
        self._wal_fd = self.fs.open(self._wal_path(), flags)
        if truncate:
            self.fs.ftruncate(self._wal_fd, 0)

    def _wal_append(self, key: bytes, value: Optional[bytes]) -> None:
        flag = 1 if value is None else 0
        body = value or b""
        rec = struct.pack(_WAL_REC, len(key), flag, len(body)) + key + body
        self.fs.write(self._wal_fd, rec)
        self.fs.fdatasync(self._wal_fd)

    def replay_wal(self) -> int:
        """Re-apply WAL records into the memtable (crash recovery)."""
        try:
            size = self.fs.stat(self._wal_path()).size
        except FileNotFound:
            return 0
        fd = self.fs.open(self._wal_path())
        replayed = 0
        try:
            off = 0
            hdr_len = struct.calcsize(_WAL_REC)
            while off + hdr_len <= size:
                hdr = self.fs.pread(fd, off, hdr_len)
                klen, flag, vlen = struct.unpack(_WAL_REC, hdr)
                if klen == 0:
                    break
                body = self.fs.pread(fd, off + hdr_len, klen + vlen)
                if len(body) < klen + vlen:
                    break  # torn tail record
                key = body[:klen]
                value = None if flag else body[klen:]
                self.memtable.put(key, value)
                replayed += 1
                off += hdr_len + klen + vlen
        finally:
            self.fs.close(fd)
        return replayed

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def put(self, key: bytes, value: bytes) -> None:
        self._wal_append(key, value)
        self.memtable.put(key, value)
        self._maybe_flush()

    def delete(self, key: bytes) -> None:
        self._wal_append(key, None)
        self.memtable.put(key, None)
        self._maybe_flush()

    def get(self, key: bytes) -> Optional[bytes]:
        found, value = self.memtable.get(key)
        if found:
            return value
        for table in self.l0:
            found, value = table.get(key)
            if found:
                return value
        for table in self.l1:
            if table.min_key <= key <= table.max_key:
                found, value = table.get(key)
                if found:
                    return value
        return None

    def scan(self, start: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """Merge-scan up to ``count`` live records with key >= start.

        A heap merge across the memtable, L0 (newest first), and L1;
        lower source index = newer, and tombstones shadow older values.
        """
        import heapq

        sources: List = [iter(self.memtable.range_items(start, 1 << 30))]
        sources.extend(t.iter_from(start) for t in self.l0)
        sources.extend(
            t.iter_from(start) for t in self.l1 if t.max_key >= start
        )
        heap: List[Tuple[bytes, int, Optional[bytes]]] = []
        for prio, src in enumerate(sources):
            for key, value in src:
                heapq.heappush(heap, (key, prio, value))
                break
        iters = {prio: src for prio, src in enumerate(sources)}
        out: List[Tuple[bytes, bytes]] = []
        current_key: Optional[bytes] = None
        best: Optional[Tuple[int, Optional[bytes]]] = None
        while heap and len(out) < count:
            key, prio, value = heapq.heappop(heap)
            nxt = next(iters[prio], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], prio, nxt[1]))
            if key != current_key:
                if best is not None and best[1] is not None:
                    out.append((current_key, best[1]))
                    if len(out) >= count:
                        return out
                current_key = key
                best = (prio, value)
            elif best is None or prio < best[0]:
                best = (prio, value)
        if best is not None and best[1] is not None and len(out) < count:
            out.append((current_key, best[1]))
        return out

    def flush(self) -> None:
        """Flush the memtable to a new L0 SSTable and truncate the WAL."""
        if not self.memtable:
            return
        path = self._new_sst_path()
        SSTableWriter.write(self.fs, path, self.memtable.sorted_items())
        self.l0.insert(0, SSTableReader(self.fs, path))
        self.memtable = Memtable()
        # WAL content is now covered by the SSTable.
        self.fs.close(self._wal_fd)
        self.fs.unlink(self._wal_path())
        self._open_wal(truncate=True)
        self.flushes += 1
        if len(self.l0) >= self.cfg.l0_compaction_trigger:
            self.compact()

    def close(self) -> None:
        self.flush()
        if self._wal_fd is not None:
            self.fs.close(self._wal_fd)
            self._wal_fd = None

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _maybe_flush(self) -> None:
        if self.memtable.approximate_bytes() >= self.cfg.memtable_bytes:
            self.flush()

    def _new_sst_path(self) -> str:
        path = f"{self.root}/sst_{self._next_file:06d}"
        self._next_file += 1
        return path

    def compact(self) -> None:
        """Merge all of L0 with L1 into fresh non-overlapping L1 tables."""
        sources = self.l0 + self.l1
        if not sources:
            return
        self.compactions += 1
        merged: Dict[bytes, Optional[bytes]] = {}
        # Oldest first; newer tables overwrite.
        for table in reversed(sources):
            for key, value in table.items():
                merged[key] = value
        live = sorted(
            (k, v) for k, v in merged.items() if v is not None
        )
        new_tables: List[SSTableReader] = []
        batch: List[Tuple[bytes, bytes]] = []
        batch_bytes = 0
        for key, value in live:
            batch.append((key, value))
            batch_bytes += len(key) + len(value)
            if batch_bytes >= TARGET_SST_BYTES:
                new_tables.append(self._write_l1(batch))
                batch, batch_bytes = [], 0
        if batch:
            new_tables.append(self._write_l1(batch))
        for table in sources:
            self.fs.unlink(table.path)
        self.l0 = []
        self.l1 = new_tables

    def _write_l1(self, items: List[Tuple[bytes, bytes]]) -> SSTableReader:
        path = self._new_sst_path()
        SSTableWriter.write(self.fs, path, list(items))
        return SSTableReader(self.fs, path)

    # crash protocol ------------------------------------------------------

    def reopen_after_crash(self) -> int:
        """Rebuild DB state after fs.remount(): re-list SSTables, replay
        the WAL."""
        self.memtable = Memtable()
        self.l0 = []
        self.l1 = []
        names = sorted(
            n for n in self.fs.listdir(self.root) if n.startswith("sst_")
        )
        # Without a manifest we conservatively treat all tables as L0,
        # newest (highest number) first.
        for name in reversed(names):
            self.l0.append(SSTableReader(self.fs, f"{self.root}/{name}"))
            self._next_file = max(
                self._next_file, int(name.split("_")[1]) + 1
            )
        self._open_wal(truncate=False)
        return self.replay_wal()
