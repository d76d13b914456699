"""The Ext4-family file system (§4.5, §4.6).

With every feature flag off this is the **Ext4 baseline**: all metadata
persisted through the block interface under a JBD2 ordered-mode journal,
file data through the host page cache with whole-page writebacks.

:mod:`repro.core.bytefs` layers the ByteFS flags on top (the paper built
ByteFS by modifying Ext4, §4.9):

* ``metadata_byte``   — metadata updates persisted as byte-granular MMIO
  stores (64 B inode halves, 64 B bitmap groups, individual dentries,
  16 B extent leaves) instead of journaled whole blocks;
* ``fw_tx``           — transactions ride the firmware write log + TxLog
  (requires the ByteFS firmware) instead of JBD2;
* ``data_byte_policy``— CoW page tracking with the modified-ratio policy
  (R < 1/8 → byte-interface writeback of dirty cachelines);
* ``data_journal``    — JBD2 data journaling combined with ByteFS commit
  entries (§4.6).

Everything is really serialized to the device (see
:mod:`repro.fs.layout`), so crash/recovery tests re-parse on-device state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.fs import layout
from repro.fs.errors import (
    DirectoryNotEmpty,
    FileExists,
    FSError,
    NoSpace,
)
from repro.fs.jbd2 import JBD2
from repro.fs.layout import (
    Extent,
    FT_DIR,
    FT_FILE,
    INLINE_EXTENTS,
    INODE_HALF,
    INODE_SIZE,
    Inode,
    SuperblockLayout,
)
from repro.fs.vfs import BaseFileSystem, Stat
from repro.host.mmap import MappedRegion
from repro.host.page_cache import (
    CACHELINE,
    CachedPage,
    PageCache,
    dirty_line_indices,
    line_runs,
)
from repro.nand.image import filled, same_filled
from repro.ssd.device import MSSD
from repro.stats.traffic import StructKind
from repro.trace import tracer as trace

#: O_DIRECT requests up to this many bytes take the byte interface (§3.3)
DIRECT_BYTE_MAX = 512
#: updates after which an open per-inode transaction is committed
#: (bounds TxLog growth for never-fsynced files)
INODE_TX_MAX_UPDATES = 64
#: bits of one 64 B bitmap group, the unit a bitmap change persists (§4.5)
_GROUP_BITS = 64 * 8

# StructKind members bound once: a member read off the enum class costs
# a global and an attribute load on every metadata and data access.
_BITMAP = StructKind.BITMAP
_DATA = StructKind.DATA
_DATA_PTR = StructKind.DATA_PTR
_DENTRY = StructKind.DENTRY
_INODE = StructKind.INODE
_SUPERBLOCK = StructKind.SUPERBLOCK


@lru_cache(maxsize=8)
def _block_interface_from(total: int, threshold: float) -> int:
    """The fewest dirty lines of a ``total``-line page that select the
    block interface (§4.6): the first count for which ``R < threshold``
    is false in floating point, ``total + 1`` when none is."""
    return next(
        (n for n in range(total + 1) if not n / total < threshold), total + 1
    )


@dataclass
class ExtFSConfig:
    """Feature flags and tunables for the Ext4 family."""

    n_inodes: Optional[int] = None
    journal_blocks: int = 64
    page_cache_pages: int = 2048
    # --- ByteFS flags (all False = the Ext4 baseline) ---
    metadata_byte: bool = False
    fw_tx: bool = False
    data_byte_policy: bool = False
    data_journal: bool = False
    byte_ratio_threshold: float = 1.0 / 8.0   # R threshold (§4.6)
    #: metadata ops between automatic journal commits (stands in for
    #: JBD2's 5-second commit timer, which virtual time cannot model)
    commit_interval_ops: int = 32


class _DEntry:
    __slots__ = ("ino", "ftype", "blkno", "offset", "size")

    def __init__(self, ino: int, ftype: int, blkno: int, offset: int, size: int):
        self.ino = ino
        self.ftype = ftype
        self.blkno = blkno
        self.offset = offset
        self.size = size


class _DirCache:
    """Parsed view of a directory's blocks (radix-tree analogue, §4.5)."""

    def __init__(self) -> None:
        self.entries: Dict[str, _DEntry] = {}
        self.fill: Dict[int, int] = {}        # blkno -> append offset
        self.free: List[Tuple[int, int, int]] = []  # (blkno, offset, size)


class TxTable:
    """Host-side transaction table (§4.3): TxIDs from a global counter."""

    def __init__(self) -> None:
        self._next = 1
        self.open: Set[int] = set()

    def begin(self) -> int:
        txid = self._next
        self._next += 1
        self.open.add(txid)
        return txid

    def finish(self, txid: int) -> None:
        self.open.discard(txid)


class ExtFS(BaseFileSystem):
    """Ext4 baseline and the chassis ByteFS is built on."""

    name = "ext4"

    def __init__(
        self,
        device: MSSD,
        config: Optional[ExtFSConfig] = None,
        format_device: bool = True,
    ) -> None:
        super().__init__(device.clock, device.stats, device.config.timing)
        self.device = device
        self.cfg = config or ExtFSConfig()
        self.P = device.page_size
        if self.cfg.fw_tx and device.config.firmware != "bytefs":
            raise FSError("fw_tx requires the ByteFS firmware")
        self.page_cache = PageCache(self.cfg.page_cache_pages, self.P)
        self._reset_caches()
        if format_device:
            self.mkfs()
        else:
            if self.cfg.fw_tx:
                # This mount numbers transactions from 1: the firmware
                # must forget the TxIDs the last mount committed, or an
                # uncommitted transaction here would pass for committed.
                device.recover()
            self.mount()
            if self._journal_in_use():
                # after a crash, remount's replay reads the header
                self.jbd2.load()

    # ------------------------------------------------------------------ #
    # state and mount
    # ------------------------------------------------------------------ #

    def _reset_caches(self) -> None:
        self._sb: Optional[SuperblockLayout] = None
        self._ibmap = bytearray()
        self._bbmap = bytearray()
        #: no ino below this one is free (search start of _alloc_ino)
        self._ino_hint = 2
        self._itable: Dict[int, bytearray] = {}
        #: this mount formatted the device: an itable block not cached
        #: is still the zeros mkfs left and needs no read
        self._itable_zeroed = False
        self._inodes: Dict[int, Inode] = {}
        self._extent_raw: Dict[int, bytearray] = {}
        self._dirs: Dict[int, _DirCache] = {}
        self._dir_raw: Dict[int, bytearray] = {}
        self._ordered: Set[int] = set()
        self._ino_tx: Dict[int, int] = {}
        self._cur_tx: Optional[int] = None
        self._ops_since_commit = 0
        self._ino_tx_updates: Dict[int, int] = {}
        self._ns_tx: Optional[int] = None
        self._ns_ops = 0
        #: freed blocks awaiting TRIM, keyed by the transaction whose
        #: commit makes the free durable (None = the jbd2 running tx).
        #: Issuing TRIM before that commit would destroy data that the
        #: still-durable metadata references if we crash in between.
        self._pending_trims: Dict[Optional[int], Set[int]] = {}
        #: every block in those queues: not reusable until its trim, as
        #: ext4 reuses no block its running transaction freed — a crash
        #: before the commit gives the block back to its old owner, and
        #: until the trim it still holds that owner's bytes
        self._prefree: Set[int] = set()
        #: the bitmap groups (of _GROUP_BITS blocks) those blocks are in
        self._prefree_groups: Set[int] = set()
        self._txtable = TxTable()
        self._alloc_cursor = 0
        self.jbd2: Optional[JBD2] = None

    def mkfs(self) -> None:
        """Format the device and mount."""
        self._walk_cache.clear()
        sb = SuperblockLayout.compute(
            self.device.capacity_blocks,
            self.P,
            self.cfg.n_inodes,
            self.cfg.journal_blocks,
        )
        self._sb = sb
        self._ibmap = bytearray(sb.inode_bitmap_blocks * self.P)
        self._bbmap = bytearray(sb.block_bitmap_blocks * self.P)
        self._ino_hint = 2
        self._itable_zeroed = True
        # Reserve metadata region and the out-of-range tail of the bitmap.
        for b in range(sb.data_start):
            self._bbmap[b // 8] |= 1 << (b % 8)
        for b in range(sb.total_blocks, sb.block_bitmap_blocks * self.P * 8):
            self._bbmap[b // 8] |= 1 << (b % 8)
        # ino 0 reserved, ino 1 = root directory.
        self._ibmap[0] |= 0b11
        root = Inode(1, mode=FT_DIR, links=2)
        self._inodes[1] = root
        blk = self._inode_blkno(1)
        self._itable[blk] = bytearray(self.P)
        off = self._inode_offset(1)
        self._itable[blk][off : off + INODE_SIZE] = root.encode()
        self._dirs[1] = _DirCache()
        self._alloc_cursor = sb.data_start
        # Write the initial images to the device.
        self.device.write_blocks(0, sb.encode(self.P), _SUPERBLOCK)
        self._write_bitmap_blocks()
        self.device.write_blocks(blk, bytes(self._itable[blk]), _INODE)
        self.jbd2 = JBD2(self, sb.journal_start, sb.journal_blocks)
        self.jbd2._write_header()

    def mount(self) -> None:
        """Read the superblock and bitmaps from the device."""
        self._walk_cache.clear()
        raw = self.device.read_blocks(0, 1, _SUPERBLOCK)
        sb = SuperblockLayout.decode(raw)
        self._sb = sb
        self._read_bitmaps()
        self._alloc_cursor = sb.data_start
        self.jbd2 = JBD2(self, sb.journal_start, sb.journal_blocks)

    def _journal_in_use(self) -> bool:
        """JBD2 journals this mount's metadata or data blocks."""
        return not self.cfg.metadata_byte or self.cfg.data_journal

    def _read_bitmaps(self) -> None:
        sb = self._sb
        self._ibmap = bytearray(
            self.device.read_blocks(
                sb.inode_bitmap_start, sb.inode_bitmap_blocks, _BITMAP
            )
        )
        self._bbmap = bytearray(
            self.device.read_blocks(
                sb.block_bitmap_start, sb.block_bitmap_blocks, _BITMAP
            )
        )
        self._ino_hint = 2

    # ------------------------------------------------------------------ #
    # transaction plumbing
    # ------------------------------------------------------------------ #

    def _txid(self) -> Optional[int]:
        return self._cur_tx if self.cfg.fw_tx else None

    def _ns_begin(self) -> None:
        if self.cfg.fw_tx:
            if self._ns_tx is None:
                self._ns_tx = self._txtable.begin()
            self._cur_tx = self._ns_tx

    def _ns_commit(self) -> None:
        """End a namespace operation.

        Namespace updates share one running transaction that commits
        every ``commit_interval_ops`` operations (and on every fsync /
        sync), mirroring how JBD2 batches Ext4's metadata commits —
        durability semantics for un-fsynced namespace ops are therefore
        the same as Ext4's.
        """
        if self.cfg.fw_tx:
            self._cur_tx = None
            self._ns_ops += 1
            if self._ns_ops >= self.cfg.commit_interval_ops:
                self._commit_ns_tx()
        else:
            self._periodic_commit()

    def _commit_ns_tx(self) -> None:
        if self._ns_tx is not None:
            txid = self._ns_tx
            self.device.commit(txid)
            self._txtable.finish(txid)
            self._ns_tx = None
            self._flush_trims(txid)
        self._ns_ops = 0

    def _periodic_commit(self) -> None:
        """Approximate JBD2's periodic commit timer with an op counter."""
        if self.cfg.metadata_byte or self.jbd2 is None:
            return
        self._ops_since_commit += 1
        if (
            self._ops_since_commit >= self.cfg.commit_interval_ops
            and self.jbd2.has_running()
        ):
            self.jbd2.commit()
            self._flush_trims(None)
            self._ops_since_commit = 0

    def _inode_tx(self, ino: int) -> Optional[int]:
        """The running transaction covering un-synced writes to ``ino``."""
        if not self.cfg.fw_tx:
            return None
        txid = self._ino_tx.get(ino)
        if txid is None:
            txid = self._txtable.begin()
            self._ino_tx[ino] = txid
        return txid

    def _commit_inode_tx(self, ino: int) -> None:
        if not self.cfg.fw_tx:
            return
        self._ino_tx_updates.pop(ino, None)
        txid = self._ino_tx.pop(ino, None)
        if txid is not None:
            self.device.commit(txid)
            self._txtable.finish(txid)
            self._flush_trims(txid)

    # ------------------------------------------------------------------ #
    # metadata persistence primitives
    # ------------------------------------------------------------------ #

    def _persist_meta(
        self, blkno: int, offset: int, data: bytes, kind: StructKind
    ) -> None:
        """Persist a metadata mutation whose raw image is already updated.

        With firmware transactions (fw_tx) the stores are posted and the
        durability barrier is deferred to COMMIT (Fig 4).  Without them
        (ByteFS-Dual) every persistent write pays the §4.2 two-step
        barrier itself, since ordering between dependent metadata updates
        has nothing else to ride on.
        """
        cfg = self.cfg
        if not cfg.metadata_byte:
            self.jbd2.mark_dirty(blkno, kind)
        elif cfg.fw_tx:
            self.device.store(
                blkno * self.P + offset, data, kind, self._cur_tx, False
            )
        else:
            self.device.store(blkno * self.P + offset, data, kind, None, True)

    def _snapshot_block(self, blkno: int) -> bytes:
        """Current image of a managed metadata block (for JBD2)."""
        sb = self._sb
        if blkno == 0:
            return sb.encode(self.P)
        if sb.inode_bitmap_start <= blkno < sb.inode_bitmap_start + sb.inode_bitmap_blocks:
            off = (blkno - sb.inode_bitmap_start) * self.P
            return bytes(self._ibmap[off : off + self.P])
        if sb.block_bitmap_start <= blkno < sb.block_bitmap_start + sb.block_bitmap_blocks:
            off = (blkno - sb.block_bitmap_start) * self.P
            return bytes(self._bbmap[off : off + self.P])
        if blkno in self._itable:
            return bytes(self._itable[blkno])
        if blkno in self._extent_raw:
            return bytes(self._extent_raw[blkno])
        if blkno in self._dir_raw:
            return bytes(self._dir_raw[blkno])
        raise FSError(f"snapshot of unmanaged block {blkno}")

    def _write_bitmap_blocks(self) -> None:
        sb = self._sb
        self.device.write_blocks(
            sb.inode_bitmap_start, bytes(self._ibmap), _BITMAP
        )
        self.device.write_blocks(
            sb.block_bitmap_start, bytes(self._bbmap), _BITMAP
        )

    def _persist_bitmap_bit(self, is_inode_bitmap: bool, bit: int) -> None:
        """Persist the 64 B bitmap group containing ``bit`` (§4.5)."""
        sb = self._sb
        bmap = self._ibmap if is_inode_bitmap else self._bbmap
        start = sb.inode_bitmap_start if is_inode_bitmap else sb.block_bitmap_start
        byte_off = bit // 8
        group = (byte_off // 64) * 64
        blkno = start + group // self.P
        in_block = group % self.P
        data = bytes(bmap[group : group + 64])
        if (
            group // 64 in self._prefree_groups
            and self.cfg.fw_tx
            and not is_inode_bitmap
        ):
            # A block another open transaction freed stays allocated in
            # this transaction's image: recovery applies the images in
            # write order, and the block must not come back free while
            # its old owner, uncommitted, may come back too.
            lo = group * 8
            mine = self._pending_trims.get(self._cur_tx, ())
            image = None
            for b in self._prefree.intersection(range(lo, lo + _GROUP_BITS)):
                if b not in mine:
                    image = image or bytearray(data)
                    image[(b - lo) >> 3] |= 1 << (b & 7)
            if image is not None:
                data = bytes(image)
        self._persist_meta(blkno, in_block, data, _BITMAP)

    # ------------------------------------------------------------------ #
    # inode management
    # ------------------------------------------------------------------ #

    def _inode_blkno(self, ino: int) -> int:
        per_block = self.P // INODE_SIZE
        return self._sb.itable_start + ino // per_block

    def _inode_offset(self, ino: int) -> int:
        per_block = self.P // INODE_SIZE
        return (ino % per_block) * INODE_SIZE

    def _load_itable_block(self, blkno: int) -> bytearray:
        raw = self._itable.get(blkno)
        if raw is None:
            raw = bytearray(
                self.device.read_blocks(blkno, 1, _INODE)
            )
            self._itable[blkno] = raw
        return raw

    def _get_inode(self, ino: int) -> Inode:
        inode = self._inodes.get(ino)
        if inode is not None:
            return inode
        blkno = self._inode_blkno(ino)
        raw = self._load_itable_block(blkno)
        off = self._inode_offset(ino)
        inode, count = Inode.decode(ino, bytes(raw[off : off + INODE_SIZE]))
        if count > INLINE_EXTENTS and inode.extent_block:
            eraw = bytearray(
                self.device.read_blocks(
                    inode.extent_block, 1, _DATA_PTR
                )
            )
            self._extent_raw[inode.extent_block] = eraw
            inode.extents = inode.extents[:INLINE_EXTENTS] + (
                layout.decode_extent_block(bytes(eraw), count)[INLINE_EXTENTS:]
            )
        self._inodes[ino] = inode
        return inode

    def _persist_inode(
        self, inode: Inode, lower: bool = True, upper: bool = False
    ) -> None:
        """Persist one or both 64 B inode halves (§4.5).

        Only the halves persisted are encoded and patched into the
        itable image.  The image stays equal to ``inode.encode()``
        because every change to an upper-half field (``extents``,
        ``extent_block``) is followed by an ``upper=True`` persist
        before anything reads the image (``_snapshot_block`` for jbd2);
        all other fields live in the lower half.
        """
        # _inode_blkno and _inode_offset, inline
        index, slot = divmod(inode.ino, self.P // INODE_SIZE)
        blkno = self._sb.itable_start + index
        off = slot * INODE_SIZE
        raw = self._itable.get(blkno)
        if raw is None:
            if self._itable_zeroed:
                raw = self._itable[blkno] = bytearray(self.P)
            else:  # the inode's 31 neighbours live in this block
                raw = self._load_itable_block(blkno)
        # Journaled, the block is filed in the running transaction
        # here (_persist_meta's mark_dirty, inline).
        journaled = not self.cfg.metadata_byte
        if lower:
            half = inode.encode_lower()
            raw[off : off + INODE_HALF] = half
            if journaled:
                self.jbd2.running[blkno] = _INODE
            else:
                self._persist_meta(blkno, off, half, _INODE)
        if upper:
            half = inode.encode_upper()
            raw[off + INODE_HALF : off + INODE_SIZE] = half
            if journaled:
                self.jbd2.running[blkno] = _INODE
            else:
                self._persist_meta(
                    blkno, off + INODE_HALF, half, _INODE
                )

    def _alloc_ino(self) -> int:
        """Allocate the lowest free inode number."""
        ibmap = self._ibmap
        n_inodes = self._sb.n_inodes
        ino = self._ino_hint
        while ino < n_inodes:
            byte = ibmap[ino >> 3]
            if byte == 0xFF:
                ino = (ino | 7) + 1  # eight inodes in use: next byte
            elif byte & (1 << (ino & 7)):
                ino += 1
            else:
                ibmap[ino >> 3] = byte | (1 << (ino & 7))
                self._ino_hint = ino + 1
                self._persist_bitmap_bit(True, ino)
                return ino
        raise NoSpace("out of inodes")

    def _free_ino(self, ino: int) -> None:
        self._ibmap[ino // 8] &= ~(1 << (ino % 8))
        if ino < self._ino_hint:
            self._ino_hint = ino
        self._persist_bitmap_bit(True, ino)
        self._inodes.pop(ino, None)

    # ------------------------------------------------------------------ #
    # block allocation (extent-based, §4.5)
    # ------------------------------------------------------------------ #

    def _alloc_blocks(self, n: int) -> List[Extent]:
        """Allocate ``n`` blocks as few contiguous extents as possible,
        first-fit from a rotating cursor (the per-CPU free lists of the
        paper collapse to one allocator in this single-address-space
        simulation).  The bitmap is read and written here, extent by
        extent."""
        sb = self._sb
        bbmap = self._bbmap
        prefree = self._prefree
        groups = self._prefree_groups
        out: List[Extent] = []
        remaining = n

        def scan(start: int, stop: int) -> None:
            nonlocal remaining
            b = start
            while b < stop and remaining > 0:
                if bbmap[b >> 3] & (1 << (b & 7)):
                    b += 1
                    continue
                run = b
                end = min(stop, b + remaining)
                while b < end and not bbmap[b >> 3] & (1 << (b & 7)):
                    b += 1
                if (
                    groups
                    and not groups.isdisjoint(range(
                        run // _GROUP_BITS, (b - 1) // _GROUP_BITS + 1
                    ))
                    and not prefree.isdisjoint(range(run, b))
                ):
                    b = run
                    while (b < end and b not in prefree
                           and not bbmap[b >> 3] & (1 << (b & 7))):
                        b += 1
                    if b == run:
                        b += 1
                        continue
                out.append(Extent(0, run, b - run))
                remaining -= b - run

        scan(self._alloc_cursor, sb.total_blocks)
        if remaining > 0:
            scan(sb.data_start, min(self._alloc_cursor, sb.total_blocks))
        if remaining > 0:
            raise NoSpace(f"cannot allocate {n} blocks")
        groups_touched: Set[int] = set()
        for ext in out:
            lo = ext.start
            hi = lo + ext.length
            for b in range(lo, hi):
                bbmap[b >> 3] |= 1 << (b & 7)
            groups_touched.update(range(lo // _GROUP_BITS,
                                        (hi - 1) // _GROUP_BITS + 1))
        for g in sorted(groups_touched):
            self._persist_bitmap_bit(False, g * _GROUP_BITS)
        last = out[-1]
        self._alloc_cursor = last.start + last.length
        if self._alloc_cursor >= sb.total_blocks:
            self._alloc_cursor = sb.data_start
        return out

    def _free_extent(self, ext: Extent) -> None:
        trim_key = self._cur_tx if self.cfg.fw_tx else None
        queue = self._pending_trims.setdefault(trim_key, set())
        lo = ext.start
        hi = lo + ext.length
        bbmap = self._bbmap
        for b in range(lo, hi):
            bbmap[b >> 3] &= ~(1 << (b & 7))
        queue.update(range(lo, hi))
        self._prefree.update(range(lo, hi))
        self._prefree_groups.update(
            range(lo // _GROUP_BITS, (hi - 1) // _GROUP_BITS + 1)
        )
        if self.jbd2 is not None:
            for b in range(lo, hi):
                self.jbd2.forget(b)
        # In ascending order, so bitmap persists hit the device in a
        # replayable order regardless of hash seed (lint DET003).
        for g in range(lo // _GROUP_BITS, (hi - 1) // _GROUP_BITS + 1):
            self._persist_bitmap_bit(False, g * _GROUP_BITS)
        if self.cfg.metadata_byte and not self.cfg.fw_tx:
            # No journal and no transaction (ByteFS-Dual): the bitmap
            # store is the commit, so the trim follows at once, before a
            # crash can leave a free block holding its old owner's bytes.
            self._flush_trims(None)

    def _flush_trims(self, trim_key: Optional[int]) -> None:
        """Issue the TRIMs deferred behind ``trim_key``'s commit
        (discard-after-commit, like Ext4's ``-o discard``)."""
        blocks = self._pending_trims.pop(trim_key, None)
        if blocks:
            self._prefree -= blocks
            self._prefree_groups = {
                b // _GROUP_BITS for b in self._prefree
            }
            # Contiguous runs collapse into one ranged TRIM each; the
            # device processes a range in ascending order, so this is
            # identical to trimming block by block in sorted order.
            ordered = sorted(blocks)
            start = prev = ordered[0]
            for b in ordered[1:]:
                if b != prev + 1:
                    self.device.trim(start, prev - start + 1)
                    start = b
                prev = b
            self.device.trim(start, prev - start + 1)

    # ------------------------------------------------------------------ #
    # file extents
    # ------------------------------------------------------------------ #

    def _block_of(self, inode: Inode, page_idx: int) -> Optional[int]:
        for ext in inode.extents:
            into = page_idx - ext.logical
            if 0 <= into < ext.length:
                return ext.start + into
        return None

    def _max_mapped_page(self, inode: Inode) -> int:
        return max((e.logical_end for e in inode.extents), default=0)

    def _persist_extents(self, inode: Inode) -> None:
        """Persist the extent list: inode upper half plus spill block."""
        if len(inode.extents) > INLINE_EXTENTS:
            if inode.extent_block == 0:
                ext = self._alloc_blocks(1)[0]
                inode.extent_block = ext.start
            image = layout.encode_extent_block(inode.extents, self.P)
            self._extent_raw[inode.extent_block] = bytearray(image)
            # Persist only the spilled leaves (16 B each).
            start = INLINE_EXTENTS * layout.EXTENT_SIZE
            end = len(inode.extents) * layout.EXTENT_SIZE
            self._persist_meta(
                inode.extent_block, start, image[start:end],
                _DATA_PTR,
            )
        self._persist_inode(inode, lower=False, upper=True)

    def _ensure_blocks(self, inode: Inode, up_to_page: int) -> None:
        """Allocate blocks so pages [0, up_to_page) are all mapped."""
        mapped = self._max_mapped_page(inode)
        if up_to_page <= mapped:
            return
        need = up_to_page - mapped
        new_extents = self._alloc_blocks(need)
        changed = False
        for ext in new_extents:
            ext.logical = mapped
            mapped += ext.length
            last = inode.extents[-1] if inode.extents else None
            if (
                last is not None
                and last.logical_end == ext.logical
                and last.start + last.length == ext.start
            ):
                last.length += ext.length
            else:
                inode.extents.append(ext)
            changed = True
        if len(inode.extents) > INLINE_EXTENTS + (
            self.P // layout.EXTENT_SIZE
        ):
            raise NoSpace("file too fragmented for one extent block")
        if changed:
            self._persist_extents(inode)

    # ------------------------------------------------------------------ #
    # directories
    # ------------------------------------------------------------------ #

    def _dir_blocks(self, inode: Inode) -> List[int]:
        blocks: List[int] = []
        for ext in sorted(inode.extents, key=lambda e: e.logical):
            blocks.extend(range(ext.start, ext.start + ext.length))
        return blocks

    def _load_dir(self, ino: int) -> _DirCache:
        cache = self._dirs.get(ino)
        if cache is not None:
            return cache
        inode = self._get_inode(ino)
        cache = _DirCache()
        for blkno in self._dir_blocks(inode):
            raw = bytearray(
                self.device.read_blocks(blkno, 1, _DENTRY)
            )
            self._dir_raw[blkno] = raw
            fill = 0
            for off, size, entry_ino, ftype, name in layout.decode_dentries(
                bytes(raw)
            ):
                fill = off + size
                if entry_ino == 0:
                    cache.free.append((blkno, off, size))
                else:
                    cache.entries[name] = _DEntry(
                        entry_ino, ftype, blkno, off, size
                    )
            cache.fill[blkno] = fill
        self._dirs[ino] = cache
        return cache

    def _dir_add(self, dir_ino: int, name: str, ino: int, ftype: int) -> None:
        cache = self._load_dir(dir_ino)
        if name in cache.entries:
            raise FileExists(name)
        record = layout.encode_dentry(ino, ftype, name)
        size = len(record)
        slot: Optional[Tuple[int, int, int]] = None
        for i, (blkno, off, free_size) in enumerate(cache.free):
            if free_size >= size:
                slot = cache.free.pop(i)
                break
        if slot is not None:
            blkno, off, free_size = slot
            record = record + bytes(free_size - size)
            size = free_size
        else:
            blkno, off = self._dir_append_slot(dir_ino, cache, size)
        raw = self._dir_raw[blkno]
        raw[off : off + size] = record
        cache.entries[name] = _DEntry(ino, ftype, blkno, off, size)
        self._persist_meta(blkno, off, bytes(record), _DENTRY)

    def _dir_append_slot(
        self, dir_ino: int, cache: _DirCache, size: int
    ) -> Tuple[int, int]:
        inode = self._get_inode(dir_ino)
        for blkno in self._dir_blocks(inode):
            fill = cache.fill.get(blkno, 0)
            if fill + size <= self.P:
                cache.fill[blkno] = fill + size
                return blkno, fill
        # Need a fresh directory block.
        before = self._max_mapped_page(inode)
        self._ensure_blocks(inode, before + 1)
        blkno = self._block_of(inode, before)
        self._dir_raw[blkno] = bytearray(self.P)
        inode.size = (before + 1) * self.P
        inode.mtime = self.clock.now
        self._persist_inode(inode, lower=True)
        cache.fill[blkno] = size
        return blkno, 0

    def _dir_remove(self, dir_ino: int, name: str) -> _DEntry:
        cache = self._load_dir(dir_ino)
        entry = cache.entries.pop(name)
        raw = self._dir_raw[entry.blkno]
        # Tombstone: zero the 4 B inode field, keep the record skippable.
        raw[entry.offset : entry.offset + 4] = b"\x00\x00\x00\x00"
        cache.free.append((entry.blkno, entry.offset, entry.size))
        self._persist_meta(
            entry.blkno, entry.offset, b"\x00\x00\x00\x00", _DENTRY
        )
        return entry

    # ------------------------------------------------------------------ #
    # BaseFileSystem hooks: namespace
    # ------------------------------------------------------------------ #

    def _root_ino(self) -> int:
        return 1

    def _is_dir(self, ino: int) -> bool:
        inode = self._inodes.get(ino)
        if inode is None:
            inode = self._get_inode(ino)
        return inode.mode == FT_DIR

    def _dir_lookup(self, dir_ino: int, name: str) -> Optional[int]:
        cache = self._dirs.get(dir_ino)
        if cache is None:
            cache = self._load_dir(dir_ino)
        entry = cache.entries.get(name)
        return entry.ino if entry is not None else None

    def _create_file(self, dir_ino: int, name: str) -> int:
        self._ns_begin()
        try:
            ino = self._alloc_ino()
            inode = Inode(ino, mode=FT_FILE, links=1)
            inode.ctime = inode.mtime = self.clock.now
            self._inodes[ino] = inode
            self._persist_inode(inode, lower=True, upper=True)
            self._dir_add(dir_ino, name, ino, FT_FILE)
            self._touch_dir(dir_ino)
            return ino
        finally:
            self._ns_commit()

    def _create_dir(self, dir_ino: int, name: str) -> int:
        self._ns_begin()
        try:
            ino = self._alloc_ino()
            inode = Inode(ino, mode=FT_DIR, links=2)
            inode.ctime = inode.mtime = self.clock.now
            self._inodes[ino] = inode
            self._dirs[ino] = _DirCache()
            self._persist_inode(inode, lower=True, upper=True)
            self._dir_add(dir_ino, name, ino, FT_DIR)
            self._touch_dir(dir_ino)
            return ino
        finally:
            self._ns_commit()

    def _touch_dir(self, dir_ino: int) -> None:
        dinode = self._get_inode(dir_ino)
        dinode.mtime = self.clock.now
        self._persist_inode(dinode, lower=True)

    def _remove_file(self, dir_ino: int, name: str, ino: int) -> None:
        self._ns_begin()
        try:
            inode = self._get_inode(ino)
            self._dir_remove(dir_ino, name)
            inode.links -= 1
            if inode.links <= 0:
                self._release_inode(inode)
            else:
                self._persist_inode(inode, lower=True)
            self._touch_dir(dir_ino)
        finally:
            self._ns_commit()

    def _release_inode(self, inode: Inode) -> None:
        self.page_cache.drop_inode(inode.ino)
        for ext in inode.extents:
            self._free_extent(ext)
        if inode.extent_block:
            self._free_extent(Extent(0, inode.extent_block, 1))
            self._extent_raw.pop(inode.extent_block, None)
            inode.extent_block = 0
        inode.extents = []
        inode.links = 0
        inode.mode = 0
        inode.size = 0
        self._persist_inode(inode, lower=True, upper=True)
        self._free_ino(inode.ino)
        self._ino_tx.pop(inode.ino, None)
        self._ordered.discard(inode.ino)

    def _remove_dir(self, dir_ino: int, name: str, ino: int) -> None:
        cache = self._load_dir(ino)
        if cache.entries:
            raise DirectoryNotEmpty(name)
        self._ns_begin()
        try:
            inode = self._get_inode(ino)
            self._dir_remove(dir_ino, name)
            for blkno in self._dir_blocks(inode):
                self._dir_raw.pop(blkno, None)
            self._dirs.pop(ino, None)
            self._release_inode(inode)
            self._touch_dir(dir_ino)
        finally:
            self._ns_commit()

    def _rename(
        self, src_dir: int, src_name: str, dst_dir: int, dst_name: str
    ) -> None:
        self._ns_begin()
        try:
            entry = self._load_dir(src_dir).entries[src_name]
            ino, ftype = entry.ino, entry.ftype
            dst_cache = self._load_dir(dst_dir)
            existing = dst_cache.entries.get(dst_name)
            if existing is not None:
                if self._get_inode(existing.ino).is_dir:
                    raise FileExists(dst_name)
                self._dir_remove(dst_dir, dst_name)
                target = self._get_inode(existing.ino)
                target.links -= 1
                if target.links <= 0:
                    self._release_inode(target)
            self._dir_remove(src_dir, src_name)
            self._dir_add(dst_dir, dst_name, ino, ftype)
            self._touch_dir(src_dir)
            if dst_dir != src_dir:
                self._touch_dir(dst_dir)
        finally:
            self._ns_commit()

    def _readdir(self, ino: int) -> List[str]:
        return sorted(self._load_dir(ino).entries)

    def _stat(self, ino: int) -> Stat:
        inode = self._get_inode(ino)
        return Stat(
            ino=ino,
            size=inode.size,
            is_dir=inode.is_dir,
            nlink=inode.links,
            mtime_ns=inode.mtime,
            ctime_ns=inode.ctime,
        )

    def _file_size(self, ino: int) -> int:
        inode = self._inodes.get(ino)
        if inode is None:
            inode = self._get_inode(ino)
        return inode.size

    # ------------------------------------------------------------------ #
    # data path
    # ------------------------------------------------------------------ #

    def _read(self, ino: int, offset: int, length: int, direct: bool) -> bytes:
        inode = self._inodes.get(ino)
        if inode is None:
            inode = self._get_inode(ino)
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        if direct:
            return self._read_direct(inode, offset, length)
        P = self.P
        lookup = self.page_cache.lookup
        advance = self.clock.advance
        hit_ns = self.timing.host_cache_hit_ns
        pieces = []
        pos = offset
        end = offset + length
        while pos < end:
            pidx = pos // P
            poff = pos % P
            n = min(P - poff, end - pos)
            page = lookup(ino, pidx)
            if page is None:
                page = self._fill_page(inode, pidx)
            else:
                advance(hit_ns)
            pieces.append(page.data[poff : poff + n])
            pos += n
        advance(self.timing.host_memcpy_ns(length))
        return b"".join(pieces)

    def _read_page_from_device(self, inode: Inode, pidx: int) -> bytes:
        blk = self._block_of(inode, pidx)
        if blk is None:
            return filled(0, self.P)
        return self.device.read_blocks(blk, 1, _DATA)

    def _fill_page(self, inode: Inode, pidx: int) -> CachedPage:
        """The page-cache miss of every buffered path and of the mmap
        fault: read the page from the device (what
        :meth:`_read_page_from_device` does, in this frame) and cache
        it."""
        blk = self._block_of(inode, pidx)
        if blk is None:
            data = filled(0, self.P)
        else:
            data = self.device.read_blocks(blk, 1, _DATA)
        return self.page_cache.install(
            inode.ino, pidx, data, self._evict_writeback
        )

    def _read_direct(self, inode: Inode, offset: int, length: int) -> bytes:
        """O_DIRECT read: byte interface for small requests (§4.6)."""
        if (
            self.cfg.data_byte_policy
            and length <= DIRECT_BYTE_MAX
            and offset // self.P == (offset + length - 1) // self.P
        ):
            blk = self._block_of(inode, offset // self.P)
            if blk is None:
                return bytes(length)
            return self.device.load(
                blk * self.P + offset % self.P, length, _DATA
            )
        out = bytearray()
        pos = offset
        while pos < offset + length:
            pidx = pos // self.P
            poff = pos % self.P
            n = min(self.P - poff, offset + length - pos)
            data = self._read_page_from_device(inode, pidx)
            out += data[poff : poff + n]
            pos += n
        return bytes(out)

    def _write(self, ino: int, offset: int, data: bytes, direct: bool) -> int:
        inode = self._inodes.get(ino)
        if inode is None:
            inode = self._get_inode(ino)
        if self.cfg.fw_tx:
            self._cur_tx = self._inode_tx(ino)
        end = offset + len(data)
        pages = -(-end // self.P)
        # _ensure_blocks allocates only when no extent reaches ``pages``
        for ext in inode.extents:
            if ext.logical + ext.length >= pages:
                break
        else:
            self._ensure_blocks(inode, pages)
        if direct:
            written = self._write_direct(inode, offset, data)
        else:
            written = self._write_buffered(inode, offset, data)
        if end > inode.size:
            inode.size = end
        inode.mtime = self.clock.now
        self._persist_inode(inode, lower=True)
        self._ordered.add(ino)
        if self.cfg.fw_tx:
            self._cur_tx = None
            # Bound open transactions for never-fsynced files so the
            # TxLog and uncommitted-entry migration cannot grow unbounded.
            self._ino_tx_updates[ino] = self._ino_tx_updates.get(ino, 0) + 1
            if self._ino_tx_updates[ino] >= INODE_TX_MAX_UPDATES:
                self._commit_inode_tx(ino)
        else:
            self._periodic_commit()
        return written

    def _write_buffered(self, inode: Inode, offset: int, data: bytes) -> int:
        pos = offset
        i = 0
        nbytes = len(data)
        P = self.P
        ino = inode.ino
        cache = self.page_cache
        cow = self.cfg.data_byte_policy
        while i < nbytes:
            pidx = pos // P
            poff = pos % P
            n = min(P - poff, nbytes - i)
            if n == P:
                # The whole-page middle of a write enters the cache a
                # run at a time: the pages not cached yet, else the
                # cached ones.
                took = cache.install_dirty_run(
                    ino, pidx, data, i, cow, self._evict_writeback
                ) or cache.overwrite_run(ino, pidx, data, i, cow)
                if took:
                    i += took * P
                    pos += took * P
                    continue
            page = cache.lookup(ino, pidx)
            if page is None:
                if n < P and pos < inode.size:
                    page = self._fill_page(inode, pidx)
                else:
                    page = cache.install(
                        ino, pidx, filled(0, P), self._evict_writeback
                    )
            cache.mark_page_dirty(page, cow)
            page.data[poff : poff + n] = data[i : i + n]
            i += n
            pos += n
        self.clock.advance(self.timing.host_memcpy_ns(nbytes))
        return nbytes

    def _write_direct(self, inode: Inode, offset: int, data: bytes) -> int:
        """O_DIRECT write: byte interface when <= 512 B (§4.6)."""
        use_byte = (
            self.cfg.data_byte_policy
            and len(data) <= DIRECT_BYTE_MAX
            and offset // self.P == (offset + len(data) - 1) // self.P
        )
        if use_byte:
            blk = self._block_of(inode, offset // self.P)
            self.device.store(
                blk * self.P + offset % self.P,
                data,
                _DATA,
                txid=self._txid(),
            )
            # Keep any cached copy coherent with the direct write.
            cached = self.page_cache.lookup(inode.ino, offset // self.P)
            if cached is not None:
                poff = offset % self.P
                cached.writable()[poff : poff + len(data)] = data
            return len(data)
        self.device.write_pages(
            self._direct_pages(inode, offset, data), _DATA
        )
        return len(data)

    def _direct_pages(
        self, inode: Inode, offset: int, data: bytes
    ) -> Iterator[Tuple[int, bytes]]:
        """Page images of a block-interface O_DIRECT write, as the
        device pulls them: a partial page reads its base first."""
        pos = offset
        i = 0
        while i < len(data):
            pidx = pos // self.P
            poff = pos % self.P
            n = min(self.P - poff, len(data) - i)
            blk = self._block_of(inode, pidx)
            if n < self.P:
                base = bytearray(self._read_page_from_device(inode, pidx))
                base[poff : poff + n] = data[i : i + n]
                image = bytes(base)
            else:
                image = bytes(data[i : i + n])
            yield blk, image
            # Keep the page cache coherent with the direct write.
            cached = self.page_cache.lookup(inode.ino, pidx)
            if cached is not None:
                cached.writable()[poff : poff + n] = data[i : i + n]
            i += n
            pos += n

    # ------------------------------------------------------------------ #
    # writeback and the interface-selection policy (§4.6)
    # ------------------------------------------------------------------ #

    def _writeback_pages(
        self,
        batch: Sequence[Tuple[int, int, CachedPage]],
        txid: Optional[int],
        journal_ok: bool = True,
    ) -> None:
        """§4.6 write-back of an ordered run of dirty ``(ino, pidx, page)``.

        The CoW pages of the run are diffed against their duplicates
        first; each page then leaves, in order, through the interface
        its modified ratio selects.  Consecutive block-interface pages
        share one scatter write; simulated time is charged page by page,
        exactly as if every page were written back on its own.

        A block run counts its first page in ``block_writebacks`` as it
        is written and the others in ``more``, which this frame's
        ``finally`` files (not the generator's: see
        :meth:`MSSD.write_pages`).
        """
        if not batch:
            return
        journal = (
            self.cfg.data_journal and self.jbd2 is not None and journal_ok
        )
        block_of = self._block_of
        inodes = self._inodes
        blks = []
        inode = None
        for ino, pidx, _page in batch:
            if inode is None or inode.ino != ino:
                inode = inodes.get(ino)
                if inode is None:
                    inode = self._get_inode(ino)
            blks.append(block_of(inode, pidx))
        byte_chunks = (
            self._byte_policy_chunks(batch, blks)
            if self.cfg.data_byte_policy else {}
        )
        n = len(batch)
        i = 0
        while i < n:
            j = i
            if not journal:
                while j < n and blks[j] is not None and j not in byte_chunks:
                    j += 1
            if j > i:
                more = [0]
                try:
                    self.device.write_pages(
                        self._block_writebacks(batch, blks, i, j, more),
                        _DATA,
                    )
                finally:
                    if more[0]:
                        self.stats.bump("block_writebacks", more[0])
                i = j
                continue
            ino, pidx, page = batch[i]
            _sp = trace.begin("pagecache", "writeback", ino=ino, pidx=pidx) \
                if trace.ENABLED else None
            try:
                policy = self._writeback_unbatched(
                    page, blks[i], byte_chunks.get(i), txid
                )
                if _sp is not None:
                    _sp.attrs = dict(_sp.attrs or {}, policy=policy)
            finally:
                if _sp is not None:
                    trace.end(_sp)
            i += 1

    def _byte_policy_chunks(
        self,
        batch: Sequence[Tuple[int, int, CachedPage]],
        blks: List[Optional[int]],
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Positions in ``batch`` whose page goes out through the byte
        interface (R < threshold), with their dirty chunk runs."""
        limit = _block_interface_from(
            self.P // CACHELINE, self.cfg.byte_ratio_threshold
        )
        chunks = {}
        for i, (_ino, _pidx, page) in enumerate(batch):
            original = page.original
            if original is not None and blks[i] is not None:
                # The diff gives up at ``limit`` lines: past the
                # threshold the page goes out whole, whatever the rest.
                lines = dirty_line_indices(page.data, original, limit)
                if lines is not None:
                    chunks[i] = line_runs(lines)
        return chunks

    def _block_writebacks(
        self,
        batch: Sequence[Tuple[int, int, CachedPage]],
        blks: List[Optional[int]],
        start: int,
        stop: int,
        more: List[int],
    ) -> Iterator[Tuple[int, bytes]]:
        """``batch[start:stop]`` as the page stream of one scatter write:
        each page's host-side work happens as the device pulls it.  The
        first page is counted in ``block_writebacks``, every later one
        in ``more[0]``."""
        advance = self.clock.advance
        xor_page_ns = self.timing.xor_page_ns
        cow = self.cfg.data_byte_policy
        for i in range(start, stop):
            ino, pidx, page = batch[i]
            _sp = trace.begin("pagecache", "writeback", ino=ino, pidx=pidx) \
                if trace.ENABLED else None
            if cow and page.original is not None:
                advance(xor_page_ns)  # the XOR pass over this page
            # The image the device takes is the cached page from here
            # on: one object, until the next store copies out of it.
            image = page.data = bytes(same_filled(page.data))
            yield blks[i], image
            page.clean()
            if i == start:
                self.stats.bump("block_writebacks")
            else:
                more[0] += 1
            if _sp is not None:
                _sp.attrs = dict(_sp.attrs or {}, policy="block")
                trace.end(_sp)

    def _writeback_unbatched(
        self,
        page: CachedPage,
        blk: Optional[int],
        chunks: Optional[List[Tuple[int, int]]],
        txid: Optional[int],
    ) -> str:
        """Write back a page that is not part of a block run (unmapped,
        byte interface, or journaled); returns the policy taken."""
        if blk is None:
            page.clean()
            return "none"
        if self.cfg.data_byte_policy and page.original is not None:
            self.clock.advance(self.timing.xor_page_ns)
        if chunks is not None:
            view = memoryview(page.data)
            for off, length in chunks:
                self.device.store(
                    blk * self.P + off,
                    bytes(view[off : off + length]),
                    _DATA,
                    txid=txid,
                )
            page.clean()
            self.stats.bump("bytefs_byte_writebacks")
            return "byte"
        # Data journaling: the image goes to the journal at commit and
        # in place only at checkpoint (double write, §4.6).
        image = page.data = bytes(same_filled(page.data))
        self.jbd2.mark_dirty_data(blk, image)
        page.clean()
        self.stats.bump("journaled_data_writebacks")
        return "journal"

    def _evict_writeback(
        self, batch: List[Tuple[int, int, CachedPage]]
    ) -> None:
        # Evictions bypass the data journal: the page may be re-read from
        # the device before the next commit, so it must be in place now.
        self._writeback_pages(batch, txid=None, journal_ok=False)

    def _flush_ordered(self) -> None:
        """Ordered mode: write all transaction-ordered data before the
        journal commit."""
        if self._ordered:
            dirty_pages = self.page_cache.dirty_pages
            self._writeback_pages(
                [(ino, pidx, page)
                 for ino in sorted(self._ordered)
                 for pidx, page in dirty_pages(ino)],
                txid=None,
            )
            self._ordered.clear()

    # ------------------------------------------------------------------ #
    # sync / fsync
    # ------------------------------------------------------------------ #

    def _fsync(self, ino: int, data_only: bool) -> None:
        cfg = self.cfg
        txid = self._ino_tx.get(ino) if cfg.fw_tx else None
        # the inode's dirty pages leave first
        batch = [
            (ino, pidx, page)
            for pidx, page in self.page_cache.dirty_pages(ino)
        ]
        if batch:
            self._writeback_pages(batch, txid)
        self._ordered.discard(ino)
        jbd2 = self.jbd2
        if cfg.fw_tx:
            if (
                cfg.data_journal
                and jbd2 is not None
                and (jbd2.running or jbd2.running_data)
            ):
                # §4.6: JBD2 journals the large data blocks; the ByteFS
                # transaction commit marks the record committed.
                jbd2.commit()
            # fsync durability covers the file's creation too: commit the
            # running namespace transaction before the inode's.
            self._commit_ns_tx()
            self._commit_inode_tx(ino)
        elif jbd2 is not None and (jbd2.running or jbd2.running_data):
            # fdatasync commits too: size/mtime updates ride the same
            # running transaction in this implementation.
            jbd2.commit()
            if None in self._pending_trims:
                self._flush_trims(None)

    def _sync(self) -> None:
        if self.cfg.fw_tx:
            # Each inode's pages ride that inode's running transaction.
            for ino, pages in groupby(
                self.page_cache.all_dirty(), key=lambda entry: entry[0]
            ):
                self._writeback_pages(list(pages), self._ino_tx.get(ino))
        else:
            self._writeback_pages(self.page_cache.all_dirty(), None)
        self._ordered.clear()
        if self.cfg.fw_tx:
            if (
                self.cfg.data_journal
                and self.jbd2 is not None
                and self.jbd2.has_running()
            ):
                self.jbd2.commit()
            self._commit_ns_tx()
            for ino in list(self._ino_tx):
                self._commit_inode_tx(ino)
        elif self.jbd2 is not None:
            self.jbd2.commit()
            self._flush_trims(None)

    def _truncate(self, ino: int, size: int) -> None:
        inode = self._get_inode(ino)
        if self.cfg.fw_tx:
            self._cur_tx = self._inode_tx(ino)
        if size < inode.size:
            keep_pages = -(-size // self.P)
            new_extents: List[Extent] = []
            for ext in sorted(inode.extents, key=lambda e: e.logical):
                if ext.logical_end <= keep_pages:
                    new_extents.append(ext)
                elif ext.logical < keep_pages:
                    keep = keep_pages - ext.logical
                    self._free_extent(
                        Extent(0, ext.start + keep, ext.length - keep)
                    )
                    new_extents.append(Extent(ext.logical, ext.start, keep))
                else:
                    self._free_extent(ext)
            inode.extents = new_extents
            space = self.page_cache.space(ino)
            for pidx in [p for p in space.pages if p >= keep_pages]:
                space.drop(pidx)
            self._persist_extents(inode)
            self._zero_truncated_tail(inode, size)
        inode.size = size
        inode.mtime = self.clock.now
        self._persist_inode(inode, lower=True)
        if self.cfg.fw_tx:
            self._cur_tx = None

    def _zero_truncated_tail(self, inode: Inode, size: int) -> None:
        """Zero the partial tail page after a shrinking truncate, so a
        later extension reads zeros (POSIX) instead of stale bytes."""
        poff = size % self.P
        if poff == 0:
            return
        pidx = size // self.P
        if self._block_of(inode, pidx) is None:
            return
        page = self.page_cache.lookup(inode.ino, pidx)
        if page is None:
            page = self._fill_page(inode, pidx)
        self.page_cache.mark_page_dirty(page, cow=self.cfg.data_byte_policy)
        page.data[poff:] = bytes(self.P - poff)
        if self.cfg.metadata_byte and not self.cfg.fw_tx:
            # ByteFS-Dual persists the new size at once: the zeroed tail
            # goes first, or a crash keeps the size with the old bytes
            # past it, and an extension brings them back.
            self._writeback_pages([(inode.ino, pidx, page)], None)

    # ------------------------------------------------------------------ #
    # memory-mapped I/O (§4.6)
    # ------------------------------------------------------------------ #

    def mmap(self, fd: int, offset: int = 0, length: Optional[int] = None):
        """Map a file region; loads/stores hit cached DRAM pages and
        msync applies the byte/block writeback policy."""
        self._syscall()
        handle = self._handle(fd)
        inode = self._get_inode(handle.ino)
        if length is None:
            length = max(0, inode.size - offset)
        # Ensure backing blocks exist for the whole mapping.
        if length > 0:
            if self.cfg.fw_tx:
                self._cur_tx = self._inode_tx(handle.ino)
            self._ensure_blocks(inode, -(-(offset + length) // self.P))
            if self.cfg.fw_tx:
                self._cur_tx = None
        return MappedRegion(self, handle.ino, offset, length)

    # ------------------------------------------------------------------ #
    # unmount / crash / remount
    # ------------------------------------------------------------------ #

    def unmount(self) -> None:
        self._sync()
        if self.jbd2 is not None and (
            not self.cfg.fw_tx or self.cfg.data_journal
        ):
            self.jbd2.checkpoint()
        self.device.write_blocks(
            0, self._sb.encode(self.P), _SUPERBLOCK
        )
        self.device.flush_all()

    def crash(self) -> None:
        """Power failure: all host-volatile state disappears."""
        super().crash()
        self.page_cache.drop_all()
        sb = self._sb
        self._reset_caches()
        self._sb = sb

    def remount(self) -> Dict[str, float]:
        """Crash recovery: firmware RECOVER() then journal replay (§4.7)."""
        fw_stats = self.device.recover()
        self.mount()
        replayed = 0
        if self._journal_in_use():
            replayed = self.jbd2.replay()
            # The bitmaps may have been rewritten by replay; reload them.
            self._read_bitmaps()
        fw_stats["journal_txs_replayed"] = replayed
        return fw_stats
