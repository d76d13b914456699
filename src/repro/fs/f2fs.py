"""A simplified F2FS baseline: log-structured, out-of-place, block interface.

Captures the traffic shape §3 attributes to F2FS:

* all writes are out of place into active log segments (separate node and
  data logs), so data-pointer (node) updates are frequent — up to 26 % of
  F2FS's write traffic in the paper;
* the node address table (NAT) maps node ids to block addresses and the
  segment information table (SIT) tracks per-segment valid counts; both
  are persisted at **checkpoints** (sync/unmount and every
  ``checkpoint_interval`` node writes);
* no journal: crash recovery loads the last checkpoint, then *rolls
  forward* fsync-marked nodes from the node log (reattaching their
  dentries via the parent/name footer each node carries, as in F2FS);
* segment cleaning migrates valid blocks out of the victim segment.

On-device layout (blocks):
``[0 superblock][checkpoint x2][NAT][SIT][main area segments...]``

A node block holds one inode plus up to ``_DIRECT_PTRS`` data pointers,
followed by chained indirect node ids for larger files.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from repro.fs import layout
from repro.fs.errors import DirectoryNotEmpty, FileExists, FSError, NoSpace
from repro.fs.vfs import BaseFileSystem, Stat
from repro.host.page_cache import CachedPage, PageCache
from repro.nand.image import filled, same_filled
from repro.ssd.device import MSSD
from repro.stats.traffic import StructKind

_SB_MAGIC = 0xF2F50001
_SB_FMT = "<IIQQQQQQQ"
_CP_FMT = "<IIQQ"
# magic, ino, cp_version, seq, fsynced, mode, links, pad, size, mtime,
# nptrs, nindirect
_NODE_HDR_FMT = "<IIIQHHHHQdII"
_NODE_MAGIC = 0xF2F5A0DE
# indirect pointer block header: magic, nid, cp_version, seq, count
_IND_HDR_FMT = "<IIIQI"
_IND_HDR = 24
_SEGMENT_BLOCKS = 64
_PTR_BYTES = 4
_NODE_HDR = 160  # header + parent/name footer for fsync recovery
_NAME_CAP = 80
FT_FILE = layout.FT_FILE
FT_DIR = layout.FT_DIR

_INDIRECT_BASE = 1 << 24


def _indirect_nid(ino: int, index: int) -> int:
    """Node id for the index-th indirect pointer block of ``ino``."""
    return _INDIRECT_BASE + ino * 256 + index


def _owner_ino(nid: int) -> int:
    """The inode that owns a node id (itself, or an indirect block's)."""
    if nid < _INDIRECT_BASE:
        return nid
    return (nid - _INDIRECT_BASE) // 256


class _Node:
    """In-memory node: one file/dir's inode + data pointers."""

    def __init__(self, ino: int, mode: int = FT_FILE) -> None:
        self.ino = ino
        self.mode = mode
        self.links = 1 if mode == FT_FILE else 2
        self.size = 0
        self.mtime = 0.0
        self.ptrs: List[int] = []  # page index -> block address (0 = hole)
        # parent directory + name, persisted in the node footer so
        # roll-forward recovery can reattach the dentry (as in F2FS)
        self.parent = 0
        self.name = ""
        self.dirty = True

    @property
    def is_dir(self) -> bool:
        return self.mode == FT_DIR


class F2FS(BaseFileSystem):
    """Log-structured flash file system baseline."""

    name = "f2fs"

    def __init__(
        self,
        device: MSSD,
        format_device: bool = True,
        page_cache_pages: int = 2048,
        checkpoint_interval: int = 256,
    ) -> None:
        super().__init__(device.clock, device.stats, device.config.timing)
        self.device = device
        self.P = device.page_size
        self.page_cache = PageCache(page_cache_pages, self.P)
        self.checkpoint_interval = checkpoint_interval
        self._direct_ptrs = (self.P - _NODE_HDR) // _PTR_BYTES // 2
        self._indirect_ptrs = self.P // _PTR_BYTES
        self._reset_caches()
        if format_device:
            self.mkfs()
        else:
            self.mount()

    # ------------------------------------------------------------------ #
    # layout / mount
    # ------------------------------------------------------------------ #

    def _reset_caches(self) -> None:
        self._nat: Dict[int, int] = {}       # node id -> block address
        self._sit_valid: Dict[int, int] = {}  # segment -> valid block count
        self._seg_free: List[int] = []
        self._nodes: Dict[int, _Node] = {}
        self._indirect: Dict[int, List[int]] = {}  # node id -> ptr block
        self._dirs: Dict[int, Dict[str, Tuple[int, int]]] = {}
        self._block_owner: Dict[int, Tuple[int, int]] = {}  # blk -> (ino,pidx)
        self._node_block_of: Dict[int, int] = {}   # blk -> node id
        # Blocks freed since the last checkpoint must stay intact until the
        # checkpoint lands, or a crash would roll NAT back to trimmed blocks.
        self._pending_trim: List[int] = []
        self._pending_free_segs: List[int] = []
        self._active_node_seg: Optional[int] = None
        self._active_node_off = 0
        self._active_data_seg: Optional[int] = None
        self._active_data_off = 0
        self._next_ino = 2
        self._next_indirect_id = 1 << 24
        self._dirty_since_cp = 0
        self._cp_version = 0
        self._node_seq = 0
        # Node ids whose NAT entry is covered by the last durable
        # checkpoint, and nodes fsync-marked since then (recoverable by
        # roll-forward without another checkpoint).
        self._cp_nids: Set[int] = set()
        self._fsynced_since_cp: Set[int] = set()
        self._writing_fsync_node = False
        self._cleaning = False

    def mkfs(self) -> None:
        self._walk_cache.clear()
        total = self.device.capacity_blocks
        nat_blocks = max(1, total // (self.P // _PTR_BYTES) // 4)
        n_segments = (total - 3 - 2 * nat_blocks - 8) // _SEGMENT_BLOCKS
        sit_blocks = max(1, -(-n_segments // (self.P // 8)))
        # NAT and SIT are ping-ponged (two copies each): a checkpoint
        # writes the *inactive* copy and only then the CP block that
        # names it, so a crash mid-checkpoint always leaves the previous
        # copy intact (real F2FS's two checkpoint packs).
        self._cp_start = 1
        self._nat_start = 3
        self._nat_blocks = nat_blocks
        self._sit_start = 3 + 2 * nat_blocks
        self._sit_blocks = sit_blocks
        self._main_start = self._sit_start + 2 * sit_blocks
        self._n_segments = (total - self._main_start) // _SEGMENT_BLOCKS
        sb = struct.pack(
            _SB_FMT,
            _SB_MAGIC,
            1,
            total,
            self._cp_start,
            self._nat_start,
            self._nat_blocks,
            self._sit_start,
            self._sit_blocks,
            self._main_start,
        )
        self.device.write_blocks(
            0, sb + bytes(self.P - len(sb)), StructKind.SUPERBLOCK
        )
        self._seg_free = list(range(self._n_segments))
        root = _Node(1, FT_DIR)
        self._nodes[1] = root
        self._dirs[1] = {}
        self._nat[1] = 0
        self._write_node(root)
        self.checkpoint()

    def mount(self) -> None:
        self._walk_cache.clear()
        raw = self.device.read_blocks(0, 1, StructKind.SUPERBLOCK)
        fields = struct.unpack_from(_SB_FMT, raw)
        if fields[0] != _SB_MAGIC:
            raise FSError("not an F2FS device")
        (_m, _v, total, cp, nat_s, nat_b, sit_s, sit_b, main_s) = fields
        self._cp_start = cp
        self._nat_start = nat_s
        self._nat_blocks = nat_b
        self._sit_start = sit_s
        self._sit_blocks = sit_b
        self._main_start = main_s
        self._n_segments = (total - main_s) // _SEGMENT_BLOCKS
        self._load_checkpoint()

    def _nat_copy_start(self, version: int) -> int:
        return self._nat_start + (version % 2) * self._nat_blocks

    def _sit_copy_start(self, version: int) -> int:
        return self._sit_start + (version % 2) * self._sit_blocks

    # ------------------------------------------------------------------ #
    # checkpointing (NAT + SIT + CP pack)
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> None:
        """Persist NAT, SIT, and the checkpoint block (§3.2 'F2FS manages
        node and data blocks with a log structure')."""
        # NAT: array of (node_id, blkaddr) pairs, dense encoding.
        nat_img = bytearray(self._nat_blocks * self.P)
        items = sorted(self._nat.items())
        struct.pack_into("<I", nat_img, 0, len(items))
        off = 4
        for node_id, blk in items:
            if off + 8 > len(nat_img):
                raise NoSpace("NAT overflow")
            struct.pack_into("<II", nat_img, off, node_id, blk)
            off += 8
        # Write the copies the *next* CP version names; the active
        # copies stay intact until the CP block lands.
        version = self._cp_version + 1
        self.device.write_blocks(
            self._nat_copy_start(version), bytes(nat_img), StructKind.DATA_PTR
        )
        # SIT: valid count per segment (2 B each).
        sit_img = bytearray(self._sit_blocks * self.P)
        for seg, valid in self._sit_valid.items():
            struct.pack_into("<H", sit_img, seg * 2, valid)
        self.device.write_blocks(
            self._sit_copy_start(version), bytes(sit_img), StructKind.BITMAP
        )
        self._cp_version += 1
        cp = struct.pack(
            _CP_FMT, _SB_MAGIC, 1, self._cp_version, self._next_ino
        )
        slot = self._cp_start + (self._cp_version % 2)
        self.device.write_blocks(
            slot, cp + bytes(self.P - len(cp)), StructKind.SUPERBLOCK
        )
        # The checkpoint is durable: stale pre-checkpoint blocks can go.
        # Ascending runs that are adjacent in the free order collapse
        # into one ranged TRIM; the free order itself is preserved (the
        # firmware's invalidation bookkeeping is order-sensitive).
        pending = self._pending_trim
        if pending:
            start = prev = pending[0]
            for blk in pending[1:]:
                if blk != prev + 1:
                    self.device.trim(start, prev - start + 1)
                    start = blk
                prev = blk
            self.device.trim(start, prev - start + 1)
        self._pending_trim.clear()
        self._seg_free.extend(self._pending_free_segs)
        self._pending_free_segs.clear()
        self._dirty_since_cp = 0
        self._cp_nids = set(self._nat)
        self._fsynced_since_cp.clear()

    def _load_checkpoint(self) -> None:
        best_version = 0
        best_next_ino = 2
        for slot in (self._cp_start, self._cp_start + 1):
            raw = self.device.read_blocks(slot, 1, StructKind.SUPERBLOCK)
            magic, _v, version, next_ino = struct.unpack_from(_CP_FMT, raw)
            if magic == _SB_MAGIC and version > best_version:
                best_version = version
                best_next_ino = next_ino
        self._cp_version = best_version
        self._next_ino = best_next_ino
        nat_img = self.device.read_blocks(
            self._nat_copy_start(best_version),
            self._nat_blocks,
            StructKind.DATA_PTR,
        )
        (count,) = struct.unpack_from("<I", nat_img, 0)
        self._nat = {}
        off = 4
        for _ in range(count):
            node_id, blk = struct.unpack_from("<II", nat_img, off)
            self._nat[node_id] = blk
            off += 8
        sit_img = self.device.read_blocks(
            self._sit_copy_start(best_version),
            self._sit_blocks,
            StructKind.BITMAP,
        )
        self._sit_valid = {}
        used_segs: Set[int] = set()
        for seg in range(self._n_segments):
            (valid,) = struct.unpack_from("<H", sit_img, seg * 2)
            if valid:
                self._sit_valid[seg] = valid
                used_segs.add(seg)
        self._seg_free = [
            s for s in range(self._n_segments) if s not in used_segs
        ]
        self._node_block_of = {blk: nid for nid, blk in self._nat.items()}
        self._cp_nids = set(self._nat)
        self._fsynced_since_cp = set()
        self._active_node_seg = None
        self._active_data_seg = None

    def _maybe_checkpoint(self) -> None:
        self._dirty_since_cp += 1
        if self._dirty_since_cp >= self.checkpoint_interval:
            self.checkpoint()

    # ------------------------------------------------------------------ #
    # segment allocation and cleaning
    # ------------------------------------------------------------------ #

    def _seg_base(self, seg: int) -> int:
        return self._main_start + seg * _SEGMENT_BLOCKS

    def _alloc_block(self, for_node: bool) -> int:
        if for_node:
            seg, off = self._active_node_seg, self._active_node_off
        else:
            seg, off = self._active_data_seg, self._active_data_off
        if seg is None or off >= _SEGMENT_BLOCKS:
            seg = self._take_free_segment()
            off = 0
        blk = self._seg_base(seg) + off
        off += 1
        if for_node:
            self._active_node_seg, self._active_node_off = seg, off
        else:
            self._active_data_seg, self._active_data_off = seg, off
        self._sit_valid[seg] = self._sit_valid.get(seg, 0) + 1
        return blk

    def _take_free_segment(self) -> int:
        if len(self._seg_free) <= 2 and not self._cleaning:
            self._clean_segment()
        if not self._seg_free and self._pending_free_segs:
            # Force a checkpoint to release the pending segments.
            self.checkpoint()
        if not self._seg_free:
            raise NoSpace("no free segments")
        return self._seg_free.pop(0)

    def _invalidate_block(self, blk: int) -> None:
        if blk <= 0:
            return
        seg = (blk - self._main_start) // _SEGMENT_BLOCKS
        if seg in self._sit_valid:
            self._sit_valid[seg] -= 1
            if self._sit_valid[seg] <= 0:
                del self._sit_valid[seg]
                if seg not in (self._active_node_seg, self._active_data_seg):
                    self._pending_free_segs.append(seg)
        self._block_owner.pop(blk, None)
        self._node_block_of.pop(blk, None)
        self._pending_trim.append(blk)

    def _clean_segment(self) -> None:
        """Migrate valid data blocks out of the fullest-invalid segment."""
        victim = None
        best = _SEGMENT_BLOCKS + 1
        for seg, valid in self._sit_valid.items():
            if seg in (self._active_node_seg, self._active_data_seg):
                continue
            if valid < best:
                victim, best = seg, valid
        if victim is None:
            return
        base = self._seg_base(victim)
        self.stats.bump("f2fs_segment_cleanings")
        # Guard against re-entry: migrations allocate blocks, which must
        # not trigger a nested cleaning pass.
        self._cleaning = True
        try:
            self._migrate_segment(victim, base)
        finally:
            self._cleaning = False

    def _migrate_segment(self, victim: int, base: int) -> None:
        for blk in range(base, base + _SEGMENT_BLOCKS):
            owner = self._block_owner.get(blk)
            if owner is not None:
                ino, pidx = owner
                node = self._get_node(ino)
                if pidx < len(node.ptrs) and node.ptrs[pidx] == blk:
                    data = self.device.read_blocks(blk, 1, StructKind.DATA)
                    new_blk = self._alloc_block(for_node=False)
                    # Migration reads, allocates and rewrites one block
                    # at a time; each goes to a freshly chosen address.
                    self.device.write_blocks(  # repro: allow[PERF001]
                        new_blk, data, StructKind.DATA)
                    node.ptrs[pidx] = new_blk
                    self._block_owner[new_blk] = (ino, pidx)
                    node.dirty = True
                self._invalidate_block(blk)
                continue
            nid = self._node_block_of.get(blk)
            if nid is not None and self._nat.get(nid) == blk:
                # Migrate a live node block by rewriting the whole node.
                ino = _owner_ino(nid)
                try:
                    node = self._get_node(ino)
                except FSError:
                    self._invalidate_block(blk)
                    continue
                self._write_node(node)
        self._sit_valid.pop(victim, None)
        self._pending_free_segs.append(victim)

    # ------------------------------------------------------------------ #
    # node I/O
    # ------------------------------------------------------------------ #

    def _encode_node(self, node: _Node) -> Tuple[bytes, List[List[int]]]:
        """Returns (inode node block image, indirect pointer block images)."""
        direct = node.ptrs[: self._direct_ptrs]
        rest = node.ptrs[self._direct_ptrs :]
        indirect_blocks: List[List[int]] = []
        while rest:
            indirect_blocks.append(rest[: self._indirect_ptrs])
            rest = rest[self._indirect_ptrs :]
        self._node_seq += 1
        hdr = struct.pack(
            _NODE_HDR_FMT,
            _NODE_MAGIC,
            node.ino,
            self._cp_version + 1,
            self._node_seq,
            1 if self._writing_fsync_node else 0,
            node.mode,
            node.links,
            0,
            node.size,
            node.mtime,
            len(direct),
            len(indirect_blocks),
        )
        body = bytearray(hdr)
        raw_name = node.name.encode()[:_NAME_CAP]
        body += struct.pack("<IH", node.parent, len(raw_name)) + raw_name
        body += bytes(_NODE_HDR - len(body))
        for p in direct:
            body += struct.pack("<I", p)
        body += bytes(self.P - len(body))
        return bytes(body[: self.P]), indirect_blocks

    def _write_node(self, node: _Node, fsync: bool = False) -> None:
        """Write a node (and its indirect blocks) out of place.

        ``fsync`` marks the node block so roll-forward recovery (§ crash
        semantics) can restore it from the node log after a crash, even
        though the NAT entry only lands at the next checkpoint.
        """
        self._writing_fsync_node = fsync
        image, indirect_blocks = self._encode_node(node)
        self._writing_fsync_node = False
        # Indirect pointer blocks first, recorded in the NAT.
        indirect_ids = []
        for i, ptr_list in enumerate(indirect_blocks):
            nid = _indirect_nid(node.ino, i)
            blk = self._alloc_block(for_node=True)
            self._node_seq += 1
            img = bytearray(
                struct.pack(
                    _IND_HDR_FMT, _NODE_MAGIC, nid, self._cp_version + 1,
                    self._node_seq, len(ptr_list),
                )
            )
            for p in ptr_list:
                img += struct.pack("<I", p)
            img += bytes(self.P - len(img))
            old = self._nat.get(nid, 0)
            # Log-structured node writes: every block is allocated (which
            # may clean a segment) right before it is written.
            self.device.write_blocks(  # repro: allow[PERF001]
                blk, bytes(img), StructKind.DATA_PTR)
            if old:
                self._invalidate_block(old)
            self._nat[nid] = blk
            self._node_block_of[blk] = nid
            indirect_ids.append(nid)
        blk = self._alloc_block(for_node=True)
        old = self._nat.get(node.ino, 0)
        self.device.write_blocks(blk, image, StructKind.INODE)
        if old:
            self._invalidate_block(old)
        self._nat[node.ino] = blk
        self._node_block_of[blk] = node.ino
        node.dirty = False
        self._maybe_checkpoint()

    def _get_node(self, ino: int) -> _Node:
        node = self._nodes.get(ino)
        if node is not None:
            return node
        blk = self._nat.get(ino)
        if blk is None or blk == 0:
            raise FSError(f"node {ino} not found")
        raw = self.device.read_blocks(blk, 1, StructKind.INODE)
        (
            magic, nino, _cpv, _seq, _fsynced, mode, links, _pad,
            size, mtime, nptrs, nindirect,
        ) = struct.unpack_from(_NODE_HDR_FMT, raw)
        if magic != _NODE_MAGIC:
            raise FSError(f"node {ino}: bad node block at {blk}")
        node = _Node(nino, mode)
        node.links = links
        node.size = size
        node.mtime = mtime
        hdr_len = struct.calcsize(_NODE_HDR_FMT)
        parent, name_len = struct.unpack_from("<IH", raw, hdr_len)
        node.parent = parent
        node.name = raw[hdr_len + 6 : hdr_len + 6 + name_len].decode(
            errors="replace"
        )
        node.ptrs = [
            struct.unpack_from("<I", raw, _NODE_HDR + i * 4)[0]
            for i in range(nptrs)
        ]
        for i in range(nindirect):
            nid = _indirect_nid(ino, i)
            iblk = self._nat.get(nid)
            if iblk:
                iraw = self.device.read_blocks(iblk, 1, StructKind.DATA_PTR)
                (_m, _nid, _cpv2, _seq2, count) = struct.unpack_from(
                    _IND_HDR_FMT, iraw
                )
                node.ptrs.extend(
                    struct.unpack_from("<I", iraw, _IND_HDR + j * 4)[0]
                    for j in range(count)
                )
        node.dirty = False
        for pidx, b in enumerate(node.ptrs):
            if b:
                self._block_owner[b] = (ino, pidx)
        self._nodes[ino] = node
        return node

    # ------------------------------------------------------------------ #
    # directories (dentry blocks are ordinary file data, rewritten
    # out-of-place on every change)
    # ------------------------------------------------------------------ #

    def _load_dir(self, ino: int) -> Dict[str, Tuple[int, int]]:
        cached = self._dirs.get(ino)
        if cached is not None:
            return cached
        node = self._get_node(ino)
        entries: Dict[str, Tuple[int, int]] = {}
        for blk in node.ptrs:
            if not blk:
                continue
            raw = self.device.read_blocks(blk, 1, StructKind.DENTRY)
            for _off, _size, entry_ino, ftype, name in layout.decode_dentries(
                raw
            ):
                if entry_ino:
                    entries[name] = (entry_ino, ftype)
        self._dirs[ino] = entries
        return entries

    def _flush_dir(self, ino: int) -> None:
        """Rewrite the directory's dentry blocks out of place."""
        node = self._get_node(ino)
        entries = self._dirs[ino]
        records = b"".join(
            layout.encode_dentry(eino, ftype, name)
            for name, (eino, ftype) in sorted(entries.items())
        )
        n_blocks = max(1, -(-len(records) // self.P))
        for old in node.ptrs:
            self._invalidate_block(old)
        node.ptrs = []
        for i in range(n_blocks):
            chunk = records[i * self.P : (i + 1) * self.P]
            blk = self._alloc_block(for_node=False)
            # As for node blocks: allocation interleaves with the writes.
            self.device.write_blocks(  # repro: allow[PERF001]
                blk, chunk + bytes(self.P - len(chunk)), StructKind.DENTRY
            )
            node.ptrs.append(blk)
            self._block_owner[blk] = (ino, i)
        node.size = len(records)
        node.mtime = self.clock.now
        self._write_node(node)

    # ------------------------------------------------------------------ #
    # BaseFileSystem hooks
    # ------------------------------------------------------------------ #

    def _root_ino(self) -> int:
        return 1

    def _is_dir(self, ino: int) -> bool:
        return self._get_node(ino).is_dir

    def _dir_lookup(self, dir_ino: int, name: str) -> Optional[int]:
        entry = self._load_dir(dir_ino).get(name)
        return entry[0] if entry else None

    def _alloc_ino(self) -> int:
        ino = self._next_ino
        self._next_ino += 1
        return ino

    def _create_file(self, dir_ino: int, name: str) -> int:
        return self._create(dir_ino, name, FT_FILE)

    def _create_dir(self, dir_ino: int, name: str) -> int:
        return self._create(dir_ino, name, FT_DIR)

    def _create(self, dir_ino: int, name: str, ftype: int) -> int:
        entries = self._load_dir(dir_ino)
        if name in entries:
            raise FileExists(name)
        ino = self._alloc_ino()
        node = _Node(ino, ftype)
        node.mtime = self.clock.now
        node.parent = dir_ino
        node.name = name
        self._nodes[ino] = node
        if ftype == FT_DIR:
            self._dirs[ino] = {}
        self._write_node(node)
        entries[name] = (ino, ftype)
        self._flush_dir(dir_ino)
        return ino

    def _remove_file(self, dir_ino: int, name: str, ino: int) -> None:
        node = self._get_node(ino)
        entries = self._load_dir(dir_ino)
        del entries[name]
        self._flush_dir(dir_ino)
        node.links -= 1
        if node.links <= 0:
            self._release(node)
        else:
            self._write_node(node)

    def _release(self, node: _Node) -> None:
        self.page_cache.drop_inode(node.ino)
        for blk in node.ptrs:
            self._invalidate_block(blk)
        old = self._nat.pop(node.ino, None)
        if old:
            self._invalidate_block(old)
        i = 0
        while _indirect_nid(node.ino, i) in self._nat:
            self._invalidate_block(self._nat.pop(_indirect_nid(node.ino, i)))
            i += 1
        self._nodes.pop(node.ino, None)
        self._dirs.pop(node.ino, None)
        self._maybe_checkpoint()

    def _remove_dir(self, dir_ino: int, name: str, ino: int) -> None:
        if self._load_dir(ino):
            raise DirectoryNotEmpty(name)
        entries = self._load_dir(dir_ino)
        del entries[name]
        self._flush_dir(dir_ino)
        self._release(self._get_node(ino))

    def _rename(
        self, src_dir: int, src_name: str, dst_dir: int, dst_name: str
    ) -> None:
        src_entries = self._load_dir(src_dir)
        ino, ftype = src_entries.pop(src_name)
        dst_entries = self._load_dir(dst_dir)
        existing = dst_entries.get(dst_name)
        if existing is not None:
            target = self._get_node(existing[0])
            if target.is_dir:
                raise FileExists(dst_name)
            target.links -= 1
            if target.links <= 0:
                self._release(target)
        dst_entries[dst_name] = (ino, ftype)
        moved = self._get_node(ino)
        moved.parent = dst_dir
        moved.name = dst_name
        moved.dirty = True
        self._flush_dir(src_dir)
        if dst_dir != src_dir:
            self._flush_dir(dst_dir)

    def _readdir(self, ino: int) -> List[str]:
        return sorted(self._load_dir(ino))

    def _stat(self, ino: int) -> Stat:
        node = self._get_node(ino)
        return Stat(
            ino=ino,
            size=node.size,
            is_dir=node.is_dir,
            nlink=node.links,
            mtime_ns=node.mtime,
            ctime_ns=node.mtime,
        )

    def _file_size(self, ino: int) -> int:
        return self._get_node(ino).size

    # ------------------------------------------------------------------ #
    # data path (out-of-place)
    # ------------------------------------------------------------------ #

    def _read(self, ino: int, offset: int, length: int, direct: bool) -> bytes:
        node = self._get_node(ino)
        if offset >= node.size:
            return b""
        length = min(length, node.size - offset)
        out = bytearray()
        pos = offset
        while pos < offset + length:
            pidx = pos // self.P
            poff = pos % self.P
            n = min(self.P - poff, offset + length - pos)
            page = None if direct else self.page_cache.lookup(ino, pidx)
            if page is None:
                blk = node.ptrs[pidx] if pidx < len(node.ptrs) else 0
                data = (
                    self.device.read_blocks(blk, 1, StructKind.DATA)
                    if blk
                    else filled(0, self.P)
                )
                if not direct:
                    page = self.page_cache.install(
                        ino, pidx, data, self._evict_writeback
                    )
                    out += page.data[poff : poff + n]
                else:
                    out += data[poff : poff + n]
            else:
                self.clock.advance(self.timing.host_cache_hit_ns)
                out += page.data[poff : poff + n]
            pos += n
        self.clock.advance(self.timing.host_memcpy_ns(length))
        return bytes(out)

    def _write(self, ino: int, offset: int, data: bytes, direct: bool) -> int:
        node = self._get_node(ino)
        end = offset + len(data)
        pos = offset
        i = 0
        while i < len(data):
            pidx = pos // self.P
            poff = pos % self.P
            n = min(self.P - poff, len(data) - i)
            while len(node.ptrs) <= pidx:
                node.ptrs.append(0)
            page = self.page_cache.lookup(ino, pidx)
            if page is None:
                old_blk = node.ptrs[pidx]
                if old_blk and (poff or n < self.P) and pos < node.size:
                    base = self.device.read_blocks(old_blk, 1, StructKind.DATA)
                else:
                    base = filled(0, self.P)
                page = self.page_cache.install(
                    ino, pidx, base, self._evict_writeback
                )
            self.page_cache.mark_page_dirty(page, cow=False)
            page.data[poff : poff + n] = data[i : i + n]
            i += n
            pos += n
        self.clock.advance(self.timing.host_memcpy_ns(len(data)))
        if end > node.size:
            node.size = end
        node.mtime = self.clock.now
        node.dirty = True
        if direct:
            self._flush_pages(ino)
            self._write_node(node)
        return len(data)

    def _flush_pages(self, ino: int) -> None:
        """Write dirty pages out of place and update pointers."""
        self._evict_writeback(
            [(ino, pidx, page)
             for pidx, page in self.page_cache.dirty_pages(ino)]
        )

    def _evict_writeback(
        self, batch: List[Tuple[int, int, CachedPage]]
    ) -> None:
        for ino, pidx, page in batch:
            node = self._get_node(ino)
            old = node.ptrs[pidx] if pidx < len(node.ptrs) else 0
            blk = self._alloc_block(for_node=False)
            # Allocating the next block may clean a segment (device reads
            # and writes of its own), so the writes cannot leave as one run.
            image = page.data = bytes(same_filled(page.data))
            self.device.write_blocks(  # repro: allow[PERF001]
                blk, image, StructKind.DATA)
            while len(node.ptrs) <= pidx:
                node.ptrs.append(0)
            node.ptrs[pidx] = blk
            self._block_owner[blk] = (ino, pidx)
            if old:
                self._invalidate_block(old)
            node.dirty = True
            page.clean()

    def _truncate(self, ino: int, size: int) -> None:
        node = self._get_node(ino)
        keep = -(-size // self.P)
        for pidx in range(keep, len(node.ptrs)):
            self._invalidate_block(node.ptrs[pidx])
        node.ptrs = node.ptrs[:keep]
        space = self.page_cache.space(ino)
        for pidx in [p for p in space.pages if p >= keep]:
            space.drop(pidx)
        # Zero the partial tail page so extension reads zeros (POSIX).
        # The tail may live only in the page cache (blocks are allocated
        # lazily at flush time), so the check must not require a block.
        poff = size % self.P
        if poff:
            pidx = keep - 1
            page = self.page_cache.lookup(ino, pidx)
            if page is None and pidx < len(node.ptrs) and node.ptrs[pidx]:
                data = self.device.read_blocks(
                    node.ptrs[pidx], 1, StructKind.DATA
                )
                page = self.page_cache.install(
                    ino, pidx, data, self._evict_writeback
                )
            if page is not None:
                self.page_cache.mark_page_dirty(page, cow=False)
                page.data[poff:] = bytes(self.P - poff)
        node.size = size
        node.mtime = self.clock.now
        self._write_node(node)

    def _fsync(self, ino: int, data_only: bool) -> None:
        node = self._get_node(ino)
        self._flush_pages(ino)
        # Roll-forward recovery reattaches this node through its
        # parent/name footer, which only works if the parent itself is
        # reachable from the checkpointed NAT.  Real F2FS falls back to
        # a full checkpoint in that case (need_do_checkpoint(): parent
        # i_pino not checkpointed).
        parent_cp = (
            node.parent == 0
            or node.parent in self._cp_nids
            or node.parent in self._fsynced_since_cp
        )
        if not parent_cp:
            if node.dirty:
                self._write_node(node)
            self.checkpoint()
            return
        # A clean node can still be unrecoverable: its latest image may
        # have been written without the fsync mark and its NAT entry not
        # yet checkpointed, so roll-forward would skip it.
        recoverable = (
            ino in self._cp_nids or ino in self._fsynced_since_cp
        )
        if node.dirty or not recoverable:
            self._write_node(node, fsync=True)
            self._fsynced_since_cp.add(ino)

    def _sync(self) -> None:
        self._evict_writeback(self.page_cache.all_dirty())
        for node in list(self._nodes.values()):
            if node.dirty:
                self._write_node(node)
        self.checkpoint()

    # ------------------------------------------------------------------ #
    # unmount / crash / remount
    # ------------------------------------------------------------------ #

    def unmount(self) -> None:
        self._sync()
        self.device.flush_all()

    def crash(self) -> None:
        super().crash()
        self.page_cache.drop_all()
        self._reset_caches()

    def remount(self) -> Dict[str, float]:
        """Recover: load the last checkpoint, then roll forward fsynced
        nodes written after it (F2FS's fsync recovery)."""
        fw_stats = self.device.recover()
        self.mount()
        fw_stats["rolled_forward"] = self._roll_forward()
        return fw_stats

    def _roll_forward(self) -> int:
        """Scan the node log for fsync-marked nodes newer than the loaded
        checkpoint and re-adopt them into the NAT/SIT.

        Real F2FS chains fsynced node blocks from the checkpointed log
        position; this scan walks the whole main area instead (same
        result, simpler bookkeeping) and charges the flash reads.
        """
        target_version = self._cp_version + 1
        hdr_len = struct.calcsize(_NODE_HDR_FMT)
        # newest (by seq) recovered image per node id
        found_nodes: Dict[int, Tuple[int, int, bytes]] = {}
        found_indirect: Dict[int, Tuple[int, int, bytes]] = {}
        total_blocks = self._n_segments * _SEGMENT_BLOCKS
        chunk = 32
        for base in range(0, total_blocks, chunk):
            n = min(chunk, total_blocks - base)
            raw = self.device.read_blocks(
                self._main_start + base, n, StructKind.INODE
            )
            for i in range(n):
                page = raw[i * self.P : (i + 1) * self.P]
                if len(page) < hdr_len:
                    continue
                magic = struct.unpack_from("<I", page)[0]
                if magic != _NODE_MAGIC:
                    continue
                blk = self._main_start + base + i
                fields = struct.unpack_from(_NODE_HDR_FMT, page)
                _m, nid, cpv, seq = fields[0], fields[1], fields[2], fields[3]
                fsynced = fields[4]
                if cpv >= target_version and nid < _INDIRECT_BASE:
                    if fsynced and (
                        nid not in found_nodes
                        or found_nodes[nid][0] < seq
                    ):
                        found_nodes[nid] = (seq, blk, page)
                elif cpv >= target_version:
                    _m2, nid2, _c2, seq2, _count = struct.unpack_from(
                        _IND_HDR_FMT, page
                    )
                    if (
                        nid2 not in found_indirect
                        or found_indirect[nid2][0] < seq2
                    ):
                        found_indirect[nid2] = (seq2, blk, page)
        if not found_nodes:
            return 0
        # Adopt the recovered nodes: NAT entries plus SIT valid counts for
        # the node blocks, their indirect blocks, and their data blocks.
        def mark_used(blk: int) -> None:
            seg = (blk - self._main_start) // _SEGMENT_BLOCKS
            self._sit_valid[seg] = self._sit_valid.get(seg, 0) + 1
            if seg in self._seg_free:
                self._seg_free.remove(seg)

        recovered = 0
        for nid, (seq, blk, page) in sorted(found_nodes.items()):
            fields = struct.unpack_from(_NODE_HDR_FMT, page)
            nindirect = fields[11]
            self._nat[nid] = blk
            self._node_block_of[blk] = nid
            mark_used(blk)
            for i in range(nindirect):
                ind_nid = _indirect_nid(nid, i)
                if ind_nid in found_indirect:
                    _iseq, iblk, _ipage = found_indirect[ind_nid]
                    self._nat[ind_nid] = iblk
                    self._node_block_of[iblk] = ind_nid
                    mark_used(iblk)
            self._next_ino = max(self._next_ino, nid + 1)
            node = self._get_node(nid)
            for ptr in node.ptrs:
                if ptr:
                    mark_used(ptr)
            recovered += 1
        # Reattach dentries for recovered nodes whose parent rolled back
        # (F2FS stores parent + name in the node for exactly this).
        for nid in sorted(found_nodes):
            node = self._get_node(nid)
            if not node.parent or not node.name:
                continue
            try:
                entries = self._load_dir(node.parent)
            except FSError:
                continue  # parent unrecoverable: orphan node
            if node.name not in entries:
                entries[node.name] = (nid, node.mode)
                self._flush_dir(node.parent)
        # Persist the recovered state so a second crash keeps it.
        self.checkpoint()
        self._nodes.clear()
        self._dirs.clear()
        self._block_owner.clear()
        self._walk_cache.clear()
        return recovered
