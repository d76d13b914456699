"""A NOVA-like baseline: per-inode log-structured NVM file system.

NOVA (FAST '16) targets byte-addressable NVM; the paper mounts it on the
M-SSD by BAR-mapping the whole device (§5.1).  The properties that drive
its behaviour in the evaluation:

* **pure byte interface** — every access is an MMIO load/store; there is
  no host page cache (DAX), so reads always cross the interconnect and
  pay the high PCIe cacheline-read latency (NOVA "fails to exploit the
  spatial locality with the block interface", §5.2);
* **per-inode metadata logs** — every metadata change appends a log entry
  (out-of-place), doubling metadata write traffic relative to in-place
  schemes (§5.3);
* **copy-on-write data** — overwrites allocate fresh pages and write them
  whole, which is the page-granular CoW write amplification Figure 9
  charges NOVA with;
* writes are durable at completion, so ``fsync`` is a no-op.

On-device layout (pages): ``[0 superblock][inode table][log+data pages]``.
Free-space tracking is in DRAM and rebuilt on mount by walking the logs,
as in real NOVA.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.fs.errors import (
    DirectoryNotEmpty,
    FileExists,
    FSError,
    NoSpace,
)
from repro.fs.vfs import BaseFileSystem, Stat
from repro.ssd.device import MSSD
from repro.stats.traffic import StructKind

_SB_MAGIC = 0x0A04A001
_SB_FMT = "<IIQQQ"
_NJ_MAGIC = 0x0A04A10E
_NJ_HDR = "<IH"             # magic, active record count
_INODE_FMT = "<HHHHQdIII"   # valid, mode, links, pad, size, mtime,
                            # log_head, log_tail_page, log_tail_off
_INODE_BYTES = 64
_ENTRY_HDR = "<HH"          # type, length
_E_ATTR = 1
_E_WRITE = 2
_E_DADD = 3
_E_DDEL = 4
_LOG_PAGE_DATA = 4088       # last 8 B of a log page: next-page pointer

FT_FILE = 1
FT_DIR = 2


class _MemInode:
    __slots__ = (
        "ino", "mode", "links", "size", "mtime",
        "log_head", "log_tail_page", "log_tail_off",
        "pages", "entries_loaded", "log_pages",
    )

    def __init__(self, ino: int, mode: int) -> None:
        self.ino = ino
        self.mode = mode
        self.links = 1 if mode == FT_FILE else 2
        self.size = 0
        self.mtime = 0.0
        self.log_head = 0
        self.log_tail_page = 0
        self.log_tail_off = 0
        self.pages: Dict[int, int] = {}   # file page idx -> device page
        self.entries_loaded = False
        self.log_pages: List[int] = []

    @property
    def is_dir(self) -> bool:
        return self.mode == FT_DIR


class NovaFS(BaseFileSystem):
    """NOVA-like per-inode-log file system over the byte interface."""

    name = "nova"

    def __init__(
        self,
        device: MSSD,
        format_device: bool = True,
        n_inodes: int = 4096,
    ) -> None:
        super().__init__(device.clock, device.stats, device.config.timing)
        self.device = device
        self.P = device.page_size
        self.n_inodes = n_inodes
        self._itable_start = 1
        self._itable_pages = -(-n_inodes * _INODE_BYTES // self.P)
        # One page of lite journal between the inode table and data.
        self._journal_page = self._itable_start + self._itable_pages
        self._data_start = self._journal_page + 1
        self._inodes: Dict[int, _MemInode] = {}
        self._dirs: Dict[int, Dict[str, Tuple[int, int]]] = {}
        self._free_cursor = self._data_start
        self._free_pages: List[int] = []
        self._used_pages: Set[int] = set()
        self._next_ino = 2
        self._journal_active = False
        self._pending_frees: Set[int] = set()
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
            self._itable_start, self._data_start,
        )
        self.device.write_blocks(
            0, sb + bytes(self.P - len(sb)), StructKind.SUPERBLOCK
        )
        # Zero the inode table region (block interface at mkfs time only).
        self.device.write_blocks(
            self._itable_start,
            bytes((self._itable_pages + 1) * self.P),
            StructKind.INODE,
        )
        root = _MemInode(1, FT_DIR)
        root.entries_loaded = True
        self._inodes[1] = root
        self._dirs[1] = {}
        self._persist_inode_entry(root)

    def mount(self) -> None:
        self._walk_cache.clear()
        raw = self.device.read_blocks(0, 1, StructKind.SUPERBLOCK)
        magic, _v, n_inodes, itable, data_start = struct.unpack_from(
            _SB_FMT, raw
        )
        if magic != _SB_MAGIC:
            raise FSError("not a NOVA device")
        self.n_inodes = n_inodes
        self._itable_start = itable
        self._data_start = data_start
        self._journal_page = data_start - 1
        self._itable_pages = self._journal_page - itable
        self._inodes = {}
        self._dirs = {}
        self._used_pages = set()
        self._free_pages = []
        self._free_cursor = self._data_start
        self._next_ino = 2
        self._journal_active = False
        self._pending_frees = set()
        # Undo any interrupted multi-inode update before trusting the
        # inode table (NOVA's lite-journal recovery).
        self._lite_journal_rollback()
        # Rebuild DRAM state by scanning the inode table and walking every
        # valid inode's log (NOVA's recovery scan).
        for ino in range(1, self.n_inodes):
            entry = self._load_inode_entry(ino)
            if entry is None:
                continue
            self._inodes[ino] = entry
            self._replay_log(entry)
            self._next_ino = max(self._next_ino, ino + 1)
        if self._used_pages:
            self._free_cursor = max(self._used_pages) + 1

    # ------------------------------------------------------------------ #
    # inode table entries (64 B each, byte interface)
    # ------------------------------------------------------------------ #

    def _inode_addr(self, ino: int) -> int:
        return self._itable_start * self.P + ino * _INODE_BYTES

    def _persist_inode_entry(self, inode: _MemInode) -> None:
        packed = struct.pack(
            _INODE_FMT,
            1, inode.mode, inode.links, 0,
            inode.size, inode.mtime,
            inode.log_head, inode.log_tail_page, inode.log_tail_off,
        )
        packed += bytes(_INODE_BYTES - len(packed))
        self.device.store(self._inode_addr(inode.ino), packed, StructKind.INODE)

    def _persist_tail(self, inode: _MemInode) -> None:
        """Persist just the log-tail/size fields (one 64 B line anyway)."""
        self._persist_inode_entry(inode)

    def _invalidate_inode_entry(self, ino: int) -> None:
        self.device.store(self._inode_addr(ino), b"\x00\x00", StructKind.INODE)

    # ------------------------------------------------------------------ #
    # lite journal (NOVA's mechanism for atomic multi-inode updates,
    # e.g. cross-directory rename): snapshot the affected 64 B inode
    # table entries, mutate, then clear.  Log appends past a persisted
    # tail are invisible, so rolling the entries back undoes everything.
    # ------------------------------------------------------------------ #

    def _lite_journal_begin(self, inos: List[int]) -> None:
        base = self._journal_page * self.P
        for i, ino in enumerate(inos):
            addr = self._inode_addr(ino)
            old = self.device.load(addr, _INODE_BYTES, StructKind.JOURNAL)
            self.device.store(
                base + 64 + 72 * i,
                struct.pack("<Q", addr) + old,
                StructKind.JOURNAL,
            )
        # Records first, header (one cacheline, atomic) second.
        self.device.store(
            base, struct.pack(_NJ_HDR, _NJ_MAGIC, len(inos)),
            StructKind.JOURNAL,
        )
        self._journal_active = True

    def _lite_journal_commit(self) -> None:
        self.device.store(
            self._journal_page * self.P,
            struct.pack(_NJ_HDR, _NJ_MAGIC, 0),
            StructKind.JOURNAL,
        )
        self._journal_active = False
        pending = sorted(self._pending_frees)
        if pending:
            start = prev = pending[0]
            for page in pending:
                self._used_pages.discard(page)
                self._free_pages.append(page)
                # Contiguous runs collapse into one ranged TRIM each.
                if page > prev + 1:
                    self.device.trim(start, prev - start + 1)
                    start = page
                prev = page
            self.device.trim(start, prev - start + 1)
        self._pending_frees.clear()

    def _lite_journal_rollback(self) -> None:
        base = self._journal_page * self.P
        raw = self.device.load(
            base, struct.calcsize(_NJ_HDR), StructKind.JOURNAL
        )
        magic, count = struct.unpack(_NJ_HDR, raw)
        if magic != _NJ_MAGIC or count == 0:
            return
        for i in reversed(range(count)):
            rec = self.device.load(
                base + 64 + 72 * i, 72, StructKind.JOURNAL
            )
            (addr,) = struct.unpack_from("<Q", rec)
            self.device.store(addr, rec[8:], StructKind.INODE)
        self.device.store(
            base, struct.pack(_NJ_HDR, _NJ_MAGIC, 0), StructKind.JOURNAL
        )
        self.stats.bump("nova_journal_rollbacks")

    def _load_inode_entry(self, ino: int) -> Optional[_MemInode]:
        raw = self.device.load(self._inode_addr(ino), _INODE_BYTES, StructKind.INODE)
        valid, mode, links, _pad, size, mtime, head, tpage, toff = (
            struct.unpack_from(_INODE_FMT, raw)
        )
        if not valid:
            return None
        inode = _MemInode(ino, mode)
        inode.links = links
        inode.size = size
        inode.mtime = mtime
        inode.log_head = head
        inode.log_tail_page = tpage
        inode.log_tail_off = toff
        return inode

    # ------------------------------------------------------------------ #
    # page allocation
    # ------------------------------------------------------------------ #

    def _alloc_page(self) -> int:
        if self._free_pages:
            page = self._free_pages.pop()
        else:
            if self._free_cursor >= self.device.capacity_blocks:
                raise NoSpace("NOVA: out of pages")
            page = self._free_cursor
            self._free_cursor += 1
        self._used_pages.add(page)
        return page

    def _free_page(self, page: int) -> None:
        if page not in self._used_pages:
            return
        if self._journal_active:
            # A rollback may resurrect references to this page, so it
            # must stay allocated and untrimmed until the journal
            # commits (keeping it out of _free_pages also stops the
            # journaled update itself from recycling it).
            self._pending_frees.add(page)
            return
        self._used_pages.discard(page)
        self._free_pages.append(page)
        self.device.trim(page)

    # ------------------------------------------------------------------ #
    # per-inode logs
    # ------------------------------------------------------------------ #

    def _append_entry(
        self,
        inode: _MemInode,
        payload: bytes,
        kind: StructKind,
        persist_tail: bool = True,
    ) -> None:
        """Append one log entry and persist the new tail (out-of-place
        metadata update: entry store + tail store, each durable).

        With ``persist_tail=False`` the entry is written but stays
        invisible until the caller persists the inode entry — the hook
        the lite journal uses to make multi-log updates atomic.
        """
        size = len(payload)
        if size > _LOG_PAGE_DATA:
            raise FSError("log entry too large")
        if inode.log_head == 0:
            page = self._alloc_page()
            inode.log_head = page
            inode.log_tail_page = page
            inode.log_tail_off = 0
            inode.log_pages = [page]
        elif inode.log_tail_off + size > _LOG_PAGE_DATA:
            new_page = self._alloc_page()
            # Link from the old page's trailing next pointer.
            self.device.store(
                inode.log_tail_page * self.P + _LOG_PAGE_DATA,
                struct.pack("<I", new_page),
                kind,
            )
            inode.log_tail_page = new_page
            inode.log_tail_off = 0
            inode.log_pages.append(new_page)
        addr = inode.log_tail_page * self.P + inode.log_tail_off
        self.device.store(addr, payload, kind)
        inode.log_tail_off += size
        if persist_tail:
            self._persist_tail(inode)

    def _iter_log(self, inode: _MemInode):
        """Yield (type, payload bytes) for every entry in the inode's log,
        reading through the byte interface."""
        page = inode.log_head
        pages = []
        while page:
            pages.append(page)
            if (
                page == inode.log_tail_page
            ):
                break
            nxt_raw = self.device.load(
                page * self.P + _LOG_PAGE_DATA, 4, StructKind.INODE
            )
            (page,) = struct.unpack("<I", nxt_raw)
        inode.log_pages = pages
        for pg in pages:
            limit = (
                inode.log_tail_off
                if pg == inode.log_tail_page
                else _LOG_PAGE_DATA
            )
            off = 0
            while off + 4 <= limit:
                hdr = self.device.load(
                    pg * self.P + off, 4, StructKind.INODE
                )
                etype, elen = struct.unpack(_ENTRY_HDR, hdr)
                if etype == 0 or elen == 0:
                    break
                payload = self.device.load(
                    pg * self.P + off, elen, StructKind.INODE
                )
                yield etype, payload
                off += elen

    def _replay_log(self, inode: _MemInode) -> None:
        """Rebuild the in-DRAM radix tree / dentry map from the log."""
        if inode.log_head:
            self._used_pages.add(inode.log_head)
        if inode.is_dir:
            self._dirs[inode.ino] = {}
        for etype, payload in self._iter_log(inode):
            if etype == _E_WRITE:
                _t, _l, pidx, count = struct.unpack_from("<HHQI", payload)
                pages = struct.unpack_from(f"<{count}I", payload, 16)
                for i in range(count):
                    old = inode.pages.get(pidx + i)
                    if old:
                        self._used_pages.discard(old)
                        self._free_pages.append(old)
                    inode.pages[pidx + i] = pages[i]
                    self._used_pages.add(pages[i])
            elif etype == _E_DADD:
                _t, _l, ino, ftype, nlen = struct.unpack_from(
                    "<HHIHH", payload
                )
                name = payload[12 : 12 + nlen].decode(errors="replace")
                self._dirs[inode.ino][name] = (ino, ftype)
            elif etype == _E_DDEL:
                _t, _l, nlen = struct.unpack_from("<HHH", payload)
                name = payload[6 : 6 + nlen].decode(errors="replace")
                self._dirs[inode.ino].pop(name, None)
        for pg in inode.log_pages:
            self._used_pages.add(pg)
        inode.entries_loaded = True

    def _free_log(self, inode: _MemInode) -> None:
        for pg in inode.log_pages:
            self._free_page(pg)
        inode.log_pages = []
        inode.log_head = 0

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _get_inode(self, ino: int) -> _MemInode:
        inode = self._inodes.get(ino)
        if inode is None:
            inode = self._load_inode_entry(ino)
            if inode is None:
                raise FSError(f"inode {ino} not found")
            self._inodes[ino] = inode
            self._replay_log(inode)
        elif not inode.entries_loaded:
            self._replay_log(inode)
        return inode

    def _dir_entries(self, ino: int) -> Dict[str, Tuple[int, int]]:
        self._get_inode(ino)
        return self._dirs.setdefault(ino, {})

    # ------------------------------------------------------------------ #
    # BaseFileSystem hooks
    # ------------------------------------------------------------------ #

    def _root_ino(self) -> int:
        return 1

    def _is_dir(self, ino: int) -> bool:
        return self._get_inode(ino).is_dir

    def _dir_lookup(self, dir_ino: int, name: str) -> Optional[int]:
        entry = self._dir_entries(dir_ino).get(name)
        return entry[0] if entry else None

    def _create_file(self, dir_ino: int, name: str) -> int:
        return self._create(dir_ino, name, FT_FILE)

    def _create_dir(self, dir_ino: int, name: str) -> int:
        return self._create(dir_ino, name, FT_DIR)

    def _create(self, dir_ino: int, name: str, ftype: int) -> int:
        entries = self._dir_entries(dir_ino)
        if name in entries:
            raise FileExists(name)
        if self._next_ino >= self.n_inodes:
            raise NoSpace("out of inodes")
        ino = self._next_ino
        self._next_ino += 1
        inode = _MemInode(ino, ftype)
        inode.mtime = self.clock.now
        inode.entries_loaded = True
        self._inodes[ino] = inode
        if ftype == FT_DIR:
            self._dirs[ino] = {}
        self._persist_inode_entry(inode)
        parent = self._get_inode(dir_ino)
        raw_name = name.encode()
        payload = struct.pack(
            "<HHIHH", _E_DADD, _align8(12 + len(raw_name)), ino, ftype,
            len(raw_name),
        ) + raw_name
        payload += bytes(_align8(12 + len(raw_name)) - len(payload))
        self._append_entry(parent, payload, StructKind.DENTRY)
        entries[name] = (ino, ftype)
        return ino

    def _remove_dentry(
        self, dir_ino: int, name: str, persist_tail: bool = True
    ) -> None:
        parent = self._get_inode(dir_ino)
        raw_name = name.encode()
        payload = struct.pack(
            "<HHH", _E_DDEL, _align8(6 + len(raw_name)), len(raw_name)
        ) + raw_name
        payload += bytes(_align8(6 + len(raw_name)) - len(payload))
        self._append_entry(
            parent, payload, StructKind.DENTRY, persist_tail=persist_tail
        )
        self._dir_entries(dir_ino).pop(name, None)

    def _remove_file(self, dir_ino: int, name: str, ino: int) -> None:
        inode = self._get_inode(ino)
        self._remove_dentry(dir_ino, name)
        inode.links -= 1
        if inode.links <= 0:
            self._release(inode)
        else:
            self._persist_inode_entry(inode)

    def _release(self, inode: _MemInode) -> None:
        for page in inode.pages.values():
            self._free_page(page)
        inode.pages.clear()
        self._free_log(inode)
        self._invalidate_inode_entry(inode.ino)
        self._inodes.pop(inode.ino, None)
        self._dirs.pop(inode.ino, None)

    def _remove_dir(self, dir_ino: int, name: str, ino: int) -> None:
        if self._dir_entries(ino):
            raise DirectoryNotEmpty(name)
        self._remove_dentry(dir_ino, name)
        self._release(self._get_inode(ino))

    def _rename(
        self, src_dir: int, src_name: str, dst_dir: int, dst_name: str
    ) -> None:
        entries = self._dir_entries(src_dir)
        ino, ftype = entries[src_name]
        dst_entries = self._dir_entries(dst_dir)
        existing = dst_entries.get(dst_name)
        if existing is not None and self._get_inode(existing[0]).is_dir:
            raise FileExists(dst_name)
        src_parent = self._get_inode(src_dir)
        dst_parent = self._get_inode(dst_dir)
        # Lite-journal every inode entry this update touches, then
        # append to both dir logs with the tails held back: nothing is
        # visible until both entries are persisted and the journal
        # cleared, so a crash anywhere rolls the whole rename back.
        inos = [src_dir]
        if dst_dir != src_dir:
            inos.append(dst_dir)
        if existing is not None:
            inos.append(existing[0])
        self._lite_journal_begin(inos)
        if existing is not None:
            target = self._get_inode(existing[0])
            target.links -= 1
            if target.links <= 0:
                self._release(target)
            else:
                self._persist_inode_entry(target)
            self._remove_dentry(dst_dir, dst_name, persist_tail=False)
        self._remove_dentry(src_dir, src_name, persist_tail=False)
        raw_name = dst_name.encode()
        payload = struct.pack(
            "<HHIHH", _E_DADD, _align8(12 + len(raw_name)), ino, ftype,
            len(raw_name),
        ) + raw_name
        payload += bytes(_align8(12 + len(raw_name)) - len(payload))
        self._append_entry(
            dst_parent, payload, StructKind.DENTRY, persist_tail=False
        )
        dst_entries[dst_name] = (ino, ftype)
        self._persist_inode_entry(src_parent)
        if dst_dir != src_dir:
            self._persist_inode_entry(dst_parent)
        self._lite_journal_commit()

    def _readdir(self, ino: int) -> List[str]:
        return sorted(self._dir_entries(ino))

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
    # data path: CoW writes, DAX reads
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
            dpage = inode.pages.get(pidx)
            if dpage is None:
                out += bytes(n)
            else:
                out += self.device.load(
                    dpage * self.P + poff, n, StructKind.DATA
                )
            pos += n
        return bytes(out)

    def _write(self, ino: int, offset: int, data: bytes, direct: bool) -> int:
        """Copy-on-write: every touched page gets a fresh device page."""
        inode = self._get_inode(ino)
        first_pidx = offset // self.P
        last_pidx = (offset + len(data) - 1) // self.P
        count = last_pidx - first_pidx + 1
        if count > 500:
            # Split huge writes so each log entry fits in one log page.
            half = (count // 2) * self.P - (offset % self.P)
            self._write(ino, offset, data[:half], direct)
            self._write(ino, offset + half, data[half:], direct)
            return len(data)
        # Allocate the new pages (contiguous when the allocator allows).
        new_pages = [self._alloc_page() for _ in range(count)]
        for j, pidx in enumerate(range(first_pidx, last_pidx + 1)):
            page_start = pidx * self.P
            lo = max(offset, page_start)
            hi = min(offset + len(data), page_start + self.P)
            image = bytearray(self.P)
            old = inode.pages.get(pidx)
            if old is not None and (lo > page_start or hi < page_start + self.P):
                # Partial overwrite: read-merge the old page (MMIO loads).
                image[:] = self.device.load(
                    old * self.P, self.P, StructKind.DATA
                )
            image[lo - page_start : hi - page_start] = data[
                lo - offset : hi - offset
            ]
            self.device.store(
                new_pages[j] * self.P, bytes(image), StructKind.DATA,
                persist=False,
            )
        self.device.link.persist_barrier(count)
        # One write entry covers the run, listing each new data page.
        elen = _align8(16 + 4 * count)
        payload = struct.pack("<HHQI", _E_WRITE, elen, first_pidx, count)
        payload += struct.pack(f"<{count}I", *new_pages)
        payload += bytes(elen - len(payload))
        self._append_entry(inode, payload, StructKind.DATA_PTR)
        for j, pidx in enumerate(range(first_pidx, last_pidx + 1)):
            old = inode.pages.get(pidx)
            if old is not None:
                self._free_page(old)
            inode.pages[pidx] = new_pages[j]
        if offset + len(data) > inode.size:
            inode.size = offset + len(data)
        inode.mtime = self.clock.now
        self._persist_tail(inode)
        return len(data)

    def _truncate(self, ino: int, size: int) -> None:
        inode = self._get_inode(ino)
        keep = -(-size // self.P)
        inode.size = size
        inode.mtime = self.clock.now
        # Zero the partial tail of the last page (CoW to a fresh page).
        poff = size % self.P
        last = inode.pages.get(keep - 1) if poff else None
        if last is not None:
            image = bytearray(
                self.device.load(last * self.P, self.P, StructKind.DATA)
            )
            image[poff:] = bytes(self.P - poff)
            new_page = self._alloc_page()
            self.device.store(
                new_page * self.P, bytes(image), StructKind.DATA
            )
            elen = _align8(16 + 4)
            payload = struct.pack("<HHQI", _E_WRITE, elen, keep - 1, 1)
            payload += struct.pack("<I", new_page)
            payload += bytes(elen - len(payload))
            self._append_entry(inode, payload, StructKind.DATA_PTR)
            inode.pages[keep - 1] = new_page
        # New size durable first; only then drop (and trim) the tail
        # pages, or a crash in between zeroes data the old size still
        # covers.
        self._persist_inode_entry(inode)
        if last is not None:
            self._free_page(last)
        for pidx in [p for p in inode.pages if p >= keep]:
            self._free_page(inode.pages.pop(pidx))

    def _fsync(self, ino: int, data_only: bool) -> None:
        # NOVA writes are durable at completion; fsync is a no-op.
        return

    def _sync(self) -> None:
        return

    def unmount(self) -> None:
        self.device.flush_all()

    def crash(self) -> None:
        super().crash()
        self._inodes.clear()
        self._dirs.clear()

    def remount(self) -> Dict[str, float]:
        fw_stats = self.device.recover()
        t0 = self.clock.now
        self.mount()
        fw_stats["scan_ns"] = self.clock.now - t0
        return fw_stats


def _align8(n: int) -> int:
    return -(-n // 8) * 8
