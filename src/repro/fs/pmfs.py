"""A PMFS-like baseline: in-place NVM file system with an undo journal.

PMFS (EuroSys '14) properties that drive its behaviour in the paper:

* **pure byte interface / DAX** — no host page cache; reads pay the PCIe
  cacheline-read latency every time;
* **in-place updates with undo journaling** — before any metadata is
  modified in place, the old bytes are logged to a journal region and
  made durable, then the in-place write lands; that is the metadata
  double-write Figure 8 charges PMFS with;
* data writes go in place through the byte interface (bulk posted stores
  plus one durability barrier), so small overwrites are cheap but large
  sequential I/O cannot use the block engine's parallelism;
* ``fsync`` is a no-op (writes are durable at completion).

On-device layout (pages):
``[0 superblock][undo journal][inode table][data pages]``

Inodes are 128 B with direct page pointers plus two indirect pointer
pages.  The free-page allocator lives in DRAM and is rebuilt on mount by
walking the inode table (as in real PMFS).
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

from repro.fs.errors import (
    DirectoryNotEmpty,
    FileExists,
    FSError,
    NoSpace,
)
from repro.fs import layout
from repro.fs.vfs import BaseFileSystem, Stat
from repro.ssd.device import MSSD
from repro.stats.traffic import StructKind

_SB_MAGIC = 0x9AF50001
_SB_FMT = "<IIQQQQ"
_INODE_FMT = "<HHHHQd"      # valid, mode, links, pad, size, mtime
_INODE_BYTES = 128
_N_DIRECT = 16
_N_INDIRECT = 2
_JOURNAL_HDR = "<IQ"        # magic, active length
_JREC_HDR = "<QH"           # address, length
_J_MAGIC = 0x9AF5104A

FT_FILE = 1
FT_DIR = 2


class _MemInode:
    __slots__ = ("ino", "mode", "links", "size", "mtime", "ptrs", "indirect")

    def __init__(self, ino: int, mode: int) -> None:
        self.ino = ino
        self.mode = mode
        self.links = 1 if mode == FT_FILE else 2
        self.size = 0
        self.mtime = 0.0
        self.ptrs: List[int] = []        # file page idx -> device page
        self.indirect: List[int] = []    # indirect pointer pages

    @property
    def is_dir(self) -> bool:
        return self.mode == FT_DIR


class PMFS(BaseFileSystem):
    """PMFS-like in-place file system over the byte interface."""

    name = "pmfs"

    def __init__(
        self,
        device: MSSD,
        format_device: bool = True,
        n_inodes: int = 4096,
        journal_pages: int = 16,
    ) -> None:
        super().__init__(device.clock, device.stats, device.config.timing)
        self.device = device
        self.P = device.page_size
        self.n_inodes = n_inodes
        self._journal_start = 1
        self._journal_pages = journal_pages
        self._itable_start = 1 + journal_pages
        self._itable_pages = -(-n_inodes * _INODE_BYTES // self.P)
        self._data_start = self._itable_start + self._itable_pages
        self._ptrs_per_indirect = self.P // 4
        self._inodes: Dict[int, _MemInode] = {}
        self._dirs: Dict[int, Dict[str, Tuple[int, int, int]]] = {}
        self._dir_free: Dict[int, List[Tuple[int, int]]] = {}
        self._free_cursor = self._data_start
        self._free_pages: List[int] = []
        self._used_pages: Set[int] = set()
        self._next_ino = 2
        self._journal_off = 0
        self._tx_depth = 0
        self._pending_trims: Set[int] = set()
        if format_device:
            self.mkfs()
        else:
            self.mount()

    # ------------------------------------------------------------------ #
    # format / mount
    # ------------------------------------------------------------------ #

    def mkfs(self) -> None:
        self._walk_cache.clear()
        sb = struct.pack(
            _SB_FMT, _SB_MAGIC, 1, self.n_inodes,
            self._journal_start, self._itable_start, self._data_start,
        )
        self.device.write_blocks(
            0, sb + bytes(self.P - len(sb)), StructKind.SUPERBLOCK
        )
        self.device.write_blocks(
            self._journal_start,
            bytes(self._journal_pages * self.P),
            StructKind.JOURNAL,
        )
        self._write_journal_header(0)
        self.device.write_blocks(
            self._itable_start,
            bytes(self._itable_pages * self.P),
            StructKind.INODE,
        )
        root = _MemInode(1, FT_DIR)
        self._inodes[1] = root
        self._dirs[1] = {}
        self._dir_free[1] = []
        self._persist_inode(root)

    def mount(self) -> None:
        self._walk_cache.clear()
        raw = self.device.read_blocks(0, 1, StructKind.SUPERBLOCK)
        magic, _v, n_inodes, jstart, itable, data_start = struct.unpack_from(
            _SB_FMT, raw
        )
        if magic != _SB_MAGIC:
            raise FSError("not a PMFS device")
        self.n_inodes = n_inodes
        self._journal_start = jstart
        self._itable_start = itable
        self._data_start = data_start
        self._inodes = {}
        self._dirs = {}
        self._dir_free = {}
        self._used_pages = set()
        self._free_pages = []
        self._free_cursor = self._data_start
        self._next_ino = 2
        self._journal_off = 0
        self._tx_depth = 0
        self._pending_trims = set()
        # Undo any metadata transaction the crash interrupted *before*
        # trusting the inode table.
        self._journal_rollback()
        for ino in range(1, self.n_inodes):
            inode = self._load_inode(ino)
            if inode is None:
                continue
            self._inodes[ino] = inode
            for pg in inode.ptrs:
                if pg:
                    self._used_pages.add(pg)
            for pg in inode.indirect:
                self._used_pages.add(pg)
            self._next_ino = max(self._next_ino, ino + 1)
        if self._used_pages:
            self._free_cursor = max(self._used_pages) + 1

    # ------------------------------------------------------------------ #
    # undo journal (§3.3: PMFS's metadata double writes)
    # ------------------------------------------------------------------ #

    def _write_journal_header(self, active_len: int) -> None:
        hdr = struct.pack(_JOURNAL_HDR, _J_MAGIC, active_len)
        self.device.store(
            self._journal_start * self.P, hdr, StructKind.JOURNAL
        )

    @contextmanager
    def _tx(self):
        """Undo-journal transaction bracket for compound metadata ops.

        Every logged in-place write inside the bracket is undone by
        recovery if the commit record (header active length reset to 0)
        never lands — that is what makes rename/create/unlink atomic on
        crash.  Page trims are deferred to after commit so rollback can
        still restore metadata that referenced them.
        """
        self._tx_begin()
        try:
            yield
        finally:
            self._tx_commit()

    def _tx_begin(self) -> None:
        self._tx_depth += 1
        if self._tx_depth == 1:
            self._journal_off = 0

    def _tx_commit(self) -> None:
        self._tx_depth -= 1
        if self._tx_depth > 0:
            return
        if self._journal_off:
            # Commit: invalidate the undo records in one atomic store.
            self._write_journal_header(0)
            self._journal_off = 0
        pending = sorted(self._pending_trims)
        if pending:
            # Contiguous runs become one ranged TRIM each (ascending
            # processing inside the device matches page-by-page calls).
            start = prev = pending[0]
            for page in pending[1:]:
                if page != prev + 1:
                    self.device.trim(start, prev - start + 1)
                    start = page
                prev = page
            self.device.trim(start, prev - start + 1)
        self._pending_trims.clear()

    def _journal_undo(self, addr: int, length: int) -> None:
        """Log the old contents of [addr, addr+length) before an in-place
        metadata overwrite, and make the record durable."""
        old = self.device.load(addr, length, StructKind.JOURNAL)
        rec = struct.pack(_JREC_HDR, addr, length) + old
        rec += bytes(_align8(len(rec)) - len(rec))
        cap = self._journal_pages * self.P - self.P  # page 0 is the header
        if self._journal_off + len(rec) > cap:
            raise NoSpace("PMFS journal overflow (transaction too large)")
        addr_j = (self._journal_start + 1) * self.P + self._journal_off
        self.device.store(addr_j, rec, StructKind.JOURNAL)
        self._journal_off += len(rec)
        # Record first, header second: a torn record not yet covered by
        # the 12 B (single-cacheline, atomic) header is simply ignored.
        self._write_journal_header(self._journal_off)
        self.stats.bump("pmfs_undo_records")

    def _meta_store(self, addr: int, data: bytes, kind: StructKind) -> None:
        """Journaled in-place metadata write (undo log, then new bytes)."""
        with self._tx():
            self._journal_undo(addr, len(data))
            self.device.store(addr, data, kind)

    def _journal_rollback(self) -> None:
        """Mount-time recovery: apply active undo records in reverse."""
        raw = self.device.load(
            self._journal_start * self.P,
            struct.calcsize(_JOURNAL_HDR),
            StructKind.JOURNAL,
        )
        magic, active_len = struct.unpack(_JOURNAL_HDR, raw)
        if magic != _J_MAGIC or active_len == 0:
            return
        base = (self._journal_start + 1) * self.P
        records: List[Tuple[int, bytes]] = []
        off = 0
        hdr_len = struct.calcsize(_JREC_HDR)
        while off + hdr_len <= active_len:
            rec = self.device.load(base + off, hdr_len, StructKind.JOURNAL)
            addr, length = struct.unpack(_JREC_HDR, rec)
            old = self.device.load(
                base + off + hdr_len, length, StructKind.JOURNAL
            )
            records.append((addr, old))
            off += _align8(hdr_len + length)
        for addr, old in reversed(records):
            self.device.store(addr, old, StructKind.JOURNAL)
        self._write_journal_header(0)
        self.stats.bump("pmfs_journal_rollbacks")

    # ------------------------------------------------------------------ #
    # inodes
    # ------------------------------------------------------------------ #

    def _inode_addr(self, ino: int) -> int:
        return self._itable_start * self.P + ino * _INODE_BYTES

    def _encode_inode(self, inode: _MemInode) -> bytes:
        hdr = struct.pack(
            _INODE_FMT, 1, inode.mode, inode.links, 0, inode.size,
            inode.mtime,
        )
        body = bytearray(hdr)
        for i in range(_N_DIRECT):
            body += struct.pack(
                "<I", inode.ptrs[i] if i < len(inode.ptrs) else 0
            )
        for i in range(_N_INDIRECT):
            body += struct.pack(
                "<I", inode.indirect[i] if i < len(inode.indirect) else 0
            )
        body += bytes(_INODE_BYTES - len(body))
        return bytes(body)

    def _persist_inode(self, inode: _MemInode, header_only: bool = False) -> None:
        """Journaled in-place inode update.

        PMFS journals at fine granularity: a pure attribute change (size,
        mtime, links) logs and rewrites only the 24 B header, not the
        whole 128 B inode.
        """
        image = self._encode_inode(inode)
        if header_only:
            image = image[: struct.calcsize(_INODE_FMT)]
        self._meta_store(self._inode_addr(inode.ino), image, StructKind.INODE)

    def _persist_indirects(self, inode: _MemInode) -> None:
        """Write the indirect pointer pages for files beyond _N_DIRECT."""
        extra = inode.ptrs[_N_DIRECT:]
        needed = -(-len(extra) // self._ptrs_per_indirect) if extra else 0
        if needed > _N_INDIRECT:
            raise NoSpace("file exceeds PMFS max size")
        fresh = set()
        while len(inode.indirect) < needed:
            page = self._alloc_page()
            fresh.add(page)
            inode.indirect.append(page)
        for i in range(needed):
            chunk = extra[
                i * self._ptrs_per_indirect : (i + 1) * self._ptrs_per_indirect
            ]
            img = struct.pack("<I", len(chunk)) + b"".join(
                struct.pack("<I", p) for p in chunk
            )
            addr = inode.indirect[i] * self.P
            if inode.indirect[i] in fresh:
                # Unreferenced until the inode lands; no undo needed.
                self.device.store(addr, img, StructKind.DATA_PTR)
            else:
                # In-place rewrite of live pointers must be journaled or
                # a torn store corrupts data the inode already maps.
                self._meta_store(addr, img, StructKind.DATA_PTR)

    def _load_inode(self, ino: int) -> Optional[_MemInode]:
        raw = self.device.load(
            self._inode_addr(ino), _INODE_BYTES, StructKind.INODE
        )
        valid, mode, links, _pad, size, mtime = struct.unpack_from(
            _INODE_FMT, raw
        )
        if not valid:
            return None
        inode = _MemInode(ino, mode)
        inode.links = links
        inode.size = size
        inode.mtime = mtime
        base = struct.calcsize(_INODE_FMT)
        ptrs = [
            struct.unpack_from("<I", raw, base + 4 * i)[0]
            for i in range(_N_DIRECT)
        ]
        indirect = [
            struct.unpack_from("<I", raw, base + 4 * (_N_DIRECT + i))[0]
            for i in range(_N_INDIRECT)
        ]
        inode.indirect = [p for p in indirect if p]
        for ipage in inode.indirect:
            img = self.device.load(ipage * self.P, 4, StructKind.DATA_PTR)
            (count,) = struct.unpack("<I", img)
            body = self.device.load(
                ipage * self.P + 4, 4 * count, StructKind.DATA_PTR
            )
            ptrs.extend(
                struct.unpack_from("<I", body, 4 * j)[0] for j in range(count)
            )
        while ptrs and ptrs[-1] == 0:
            ptrs.pop()
        inode.ptrs = ptrs
        return inode

    def _get_inode(self, ino: int) -> _MemInode:
        inode = self._inodes.get(ino)
        if inode is None:
            inode = self._load_inode(ino)
            if inode is None:
                raise FSError(f"inode {ino} not found")
            self._inodes[ino] = inode
        return inode

    # ------------------------------------------------------------------ #
    # page allocation
    # ------------------------------------------------------------------ #

    def _alloc_page(self) -> int:
        if self._free_pages:
            page = self._free_pages.pop()
            # A page freed earlier in this (or an uncommitted) op must
            # not be trimmed after commit once it holds live data again.
            self._pending_trims.discard(page)
        else:
            if self._free_cursor >= self.device.capacity_blocks:
                raise NoSpace("PMFS: out of pages")
            page = self._free_cursor
            self._free_cursor += 1
        self._used_pages.add(page)
        return page

    def _free_page(self, page: int) -> None:
        if page in self._used_pages:
            self._used_pages.discard(page)
            self._free_pages.append(page)
            # Trim only after the freeing transaction commits: until
            # then a crash rolls metadata back to referencing this page.
            self._pending_trims.add(page)

    # ------------------------------------------------------------------ #
    # directories: in-place dentry arrays in dir data pages
    # ------------------------------------------------------------------ #

    def _load_dir(self, ino: int) -> Dict[str, Tuple[int, int, int]]:
        cached = self._dirs.get(ino)
        if cached is not None:
            return cached
        inode = self._get_inode(ino)
        entries: Dict[str, Tuple[int, int, int]] = {}
        free: List[Tuple[int, int]] = []
        for pidx, page in enumerate(inode.ptrs):
            if not page:
                continue
            raw = self.device.load(page * self.P, self.P, StructKind.DENTRY)
            for off, size, entry_ino, ftype, name in layout.decode_dentries(
                raw
            ):
                addr = page * self.P + off
                if entry_ino == 0:
                    free.append((addr, size))
                else:
                    entries[name] = (entry_ino, ftype, addr)
        self._dirs[ino] = entries
        self._dir_free[ino] = free
        return entries

    def _dir_add(self, dir_ino: int, name: str, ino: int, ftype: int) -> None:
        entries = self._load_dir(dir_ino)
        if name in entries:
            raise FileExists(name)
        record = layout.encode_dentry(ino, ftype, name)
        free = self._dir_free.setdefault(dir_ino, [])
        addr = None
        for i, (a, size) in enumerate(free):
            if size >= len(record):
                addr = a
                record = record + bytes(size - len(record))
                free.pop(i)
                break
        if addr is None:
            addr = self._dir_append_addr(dir_ino, len(record))
        self._meta_store(addr, record, StructKind.DENTRY)
        entries[name] = (ino, ftype, addr)

    def _dir_append_addr(self, dir_ino: int, size: int) -> int:
        inode = self._get_inode(dir_ino)
        fill = inode.size
        page_idx = fill // self.P
        if fill % self.P + size > self.P:
            page_idx += 1
            fill = page_idx * self.P
        while len(inode.ptrs) <= page_idx:
            inode.ptrs.append(0)
        if inode.ptrs[page_idx] == 0:
            inode.ptrs[page_idx] = self._alloc_page()
        inode.size = fill + size
        inode.mtime = self.clock.now
        self._persist_inode(inode)
        return inode.ptrs[page_idx] * self.P + fill % self.P

    def _dir_remove(self, dir_ino: int, name: str) -> None:
        entries = self._load_dir(dir_ino)
        _ino, _ftype, addr = entries.pop(name)
        self._meta_store(addr, b"\x00\x00\x00\x00", StructKind.DENTRY)
        # The record stays skippable; remember the slot for reuse.
        self._dir_free.setdefault(dir_ino, []).append((addr, 0))

    # ------------------------------------------------------------------ #
    # BaseFileSystem hooks
    # ------------------------------------------------------------------ #

    def _root_ino(self) -> int:
        return 1

    def _is_dir(self, ino: int) -> bool:
        return self._get_inode(ino).is_dir

    def _dir_lookup(self, dir_ino: int, name: str) -> Optional[int]:
        entry = self._load_dir(dir_ino).get(name)
        return entry[0] if entry else None

    def _create_file(self, dir_ino: int, name: str) -> int:
        return self._create(dir_ino, name, FT_FILE)

    def _create_dir(self, dir_ino: int, name: str) -> int:
        return self._create(dir_ino, name, FT_DIR)

    def _create(self, dir_ino: int, name: str, ftype: int) -> int:
        if self._next_ino >= self.n_inodes:
            raise NoSpace("out of inodes")
        ino = self._next_ino
        self._next_ino += 1
        inode = _MemInode(ino, ftype)
        inode.mtime = self.clock.now
        self._inodes[ino] = inode
        if ftype == FT_DIR:
            self._dirs[ino] = {}
            self._dir_free[ino] = []
        with self._tx():
            self._persist_inode(inode)
            self._dir_add(dir_ino, name, ino, ftype)
        return ino

    def _remove_file(self, dir_ino: int, name: str, ino: int) -> None:
        inode = self._get_inode(ino)
        with self._tx():
            self._dir_remove(dir_ino, name)
            inode.links -= 1
            if inode.links <= 0:
                self._release(inode)
            else:
                self._persist_inode(inode)

    def _release(self, inode: _MemInode) -> None:
        for page in inode.ptrs:
            if page:
                self._free_page(page)
        for page in inode.indirect:
            self._free_page(page)
        inode.ptrs = []
        inode.indirect = []
        self._meta_store(
            self._inode_addr(inode.ino), b"\x00\x00", StructKind.INODE
        )
        self._inodes.pop(inode.ino, None)
        self._dirs.pop(inode.ino, None)
        self._dir_free.pop(inode.ino, None)

    def _remove_dir(self, dir_ino: int, name: str, ino: int) -> None:
        if self._load_dir(ino):
            raise DirectoryNotEmpty(name)
        with self._tx():
            self._dir_remove(dir_ino, name)
            self._release(self._get_inode(ino))

    def _rename(
        self, src_dir: int, src_name: str, dst_dir: int, dst_name: str
    ) -> None:
        entries = self._load_dir(src_dir)
        ino, ftype, _addr = entries[src_name]
        dst_entries = self._load_dir(dst_dir)
        existing = dst_entries.get(dst_name)
        if existing is not None and self._get_inode(existing[0]).is_dir:
            raise FileExists(dst_name)
        with self._tx():
            if existing is not None:
                target = self._get_inode(existing[0])
                self._dir_remove(dst_dir, dst_name)
                target.links -= 1
                if target.links <= 0:
                    self._release(target)
                else:
                    self._persist_inode(target)
            self._dir_remove(src_dir, src_name)
            self._dir_add(dst_dir, dst_name, ino, ftype)

    def _readdir(self, ino: int) -> List[str]:
        return sorted(self._load_dir(ino))

    def _stat(self, ino: int) -> Stat:
        inode = self._get_inode(ino)
        return Stat(
            ino=ino,
            size=inode.size,
            is_dir=inode.is_dir,
            nlink=inode.links,
            mtime_ns=inode.mtime,
            ctime_ns=inode.mtime,
        )

    def _file_size(self, ino: int) -> int:
        return self._get_inode(ino).size

    # ------------------------------------------------------------------ #
    # data path: in-place byte-interface reads and writes (DAX)
    # ------------------------------------------------------------------ #

    def _read(self, ino: int, offset: int, length: int, direct: bool) -> bytes:
        inode = self._get_inode(ino)
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        out = bytearray()
        pos = offset
        while pos < offset + length:
            pidx = pos // self.P
            poff = pos % self.P
            n = min(self.P - poff, offset + length - pos)
            page = inode.ptrs[pidx] if pidx < len(inode.ptrs) else 0
            if page:
                out += self.device.load(
                    page * self.P + poff, n, StructKind.DATA
                )
            else:
                out += bytes(n)
            pos += n
        return bytes(out)

    def _write(self, ino: int, offset: int, data: bytes, direct: bool) -> int:
        inode = self._get_inode(ino)
        end = offset + len(data)
        first_pidx = offset // self.P
        last_pidx = (end - 1) // self.P
        grew = False
        while len(inode.ptrs) <= last_pidx:
            inode.ptrs.append(0)
        for pidx in range(first_pidx, last_pidx + 1):
            if inode.ptrs[pidx] == 0:
                inode.ptrs[pidx] = self._alloc_page()
                grew = True
        # In-place data stores: posted, one barrier at the end.
        pos = offset
        i = 0
        lines = 0
        while i < len(data):
            pidx = pos // self.P
            poff = pos % self.P
            n = min(self.P - poff, len(data) - i)
            self.device.store(
                inode.ptrs[pidx] * self.P + poff,
                data[i : i + n],
                StructKind.DATA,
                persist=False,
            )
            lines += -(-n // 64)
            i += n
            pos += n
        self.device.link.persist_barrier(max(1, lines))
        if end > inode.size:
            inode.size = end
            grew = True
        inode.mtime = self.clock.now
        if grew:
            self._persist_indirects(inode)
        self._persist_inode(inode, header_only=not grew)
        return len(data)

    def _truncate(self, ino: int, size: int) -> None:
        inode = self._get_inode(ino)
        keep = -(-size // self.P)
        with self._tx():
            for pidx in range(keep, len(inode.ptrs)):
                if inode.ptrs[pidx]:
                    self._free_page(inode.ptrs[pidx])
            inode.ptrs = inode.ptrs[:keep]
            # Zero the partial tail in place (byte interface).
            poff = size % self.P
            if poff and keep - 1 < len(inode.ptrs) and inode.ptrs[keep - 1]:
                self.device.store(
                    inode.ptrs[keep - 1] * self.P + poff,
                    bytes(self.P - poff),
                    StructKind.DATA,
                )
            inode.size = size
            inode.mtime = self.clock.now
            self._persist_indirects(inode)
            self._persist_inode(inode)

    def _fsync(self, ino: int, data_only: bool) -> None:
        return  # writes are durable at completion

    def _sync(self) -> None:
        return

    def unmount(self) -> None:
        self.device.flush_all()

    def crash(self) -> None:
        super().crash()
        self._inodes.clear()
        self._dirs.clear()
        self._dir_free.clear()

    def remount(self) -> Dict[str, float]:
        fw_stats = self.device.recover()
        t0 = self.clock.now
        self.mount()
        fw_stats["scan_ns"] = self.clock.now - t0
        return fw_stats


def _align8(n: int) -> int:
    return -(-n // 8) * 8
