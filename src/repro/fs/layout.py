"""On-disk serialization for the Ext4-family file systems (§4.5).

Everything the file system persists has a real byte encoding, so crash
tests exercise genuine parse-from-device recovery:

* **superblock** — one page at block 0;
* **inode** — 128 B, split into a frequently-updated *lower* 64 B half
  (size, times, link count) and an *upper* half (extents), so a common
  metadata update touches a single 64 B line (ByteFS §4.5);
* **extents** — 16 B leaf nodes (logical page 8 B, start block 4 B,
  length 4 B); three fit inline in the inode's upper half, the rest spill
  into a dedicated extent block;
* **directory entries** — ino 4 B, file type 2 B, name length 2 B, name
  (≤ 255 B) padded to 8 B alignment; deletion writes a 4 B tombstone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

SUPERBLOCK_MAGIC = 0xB17EF500
INODE_SIZE = 128
INODE_HALF = 64
INLINE_EXTENTS = 3
EXTENT_SIZE = 16
DENTRY_HEADER = 8
DENTRY_ALIGN = 8
MAX_NAME = 255

FT_FILE = 1
FT_DIR = 2

_SB_FMT = "<IIQQQQQQQQQQB"
_LOWER_FMT = "<QddHHI"          # size, mtime, ctime, links, mode, flags
_EXTENT_FMT = "<QII"            # logical page, start block, length
_UPPER_HDR_FMT = "<HHI"         # extent count, pad, extent block
#: the lower half packed straight to its 64 B, zero padding included
_LOWER_HALF = struct.Struct(
    f"{_LOWER_FMT}{INODE_HALF - struct.calcsize(_LOWER_FMT)}x"
)


@dataclass(frozen=True)
class SuperblockLayout:
    """Region offsets, all in absolute device blocks."""

    total_blocks: int
    n_inodes: int
    inode_bitmap_start: int
    inode_bitmap_blocks: int
    block_bitmap_start: int
    block_bitmap_blocks: int
    itable_start: int
    itable_blocks: int
    journal_start: int
    journal_blocks: int
    data_start: int
    clean: bool = True

    @staticmethod
    def compute(
        total_blocks: int,
        page_size: int,
        n_inodes: Optional[int] = None,
        journal_blocks: int = 64,
    ) -> "SuperblockLayout":
        """Lay out the metadata regions for a device of ``total_blocks``."""
        if n_inodes is None:
            n_inodes = max(64, total_blocks // 4)
        inodes_per_block = page_size // INODE_SIZE
        bits_per_block = page_size * 8
        ib_blocks = -(-n_inodes // bits_per_block)
        bb_blocks = -(-total_blocks // bits_per_block)
        it_blocks = -(-n_inodes // inodes_per_block)
        pos = 1
        ib_start = pos
        pos += ib_blocks
        bb_start = pos
        pos += bb_blocks
        it_start = pos
        pos += it_blocks
        j_start = pos
        pos += journal_blocks
        if pos >= total_blocks:
            raise ValueError(
                f"device too small: metadata needs {pos} of "
                f"{total_blocks} blocks"
            )
        return SuperblockLayout(
            total_blocks=total_blocks,
            n_inodes=n_inodes,
            inode_bitmap_start=ib_start,
            inode_bitmap_blocks=ib_blocks,
            block_bitmap_start=bb_start,
            block_bitmap_blocks=bb_blocks,
            itable_start=it_start,
            itable_blocks=it_blocks,
            journal_start=j_start,
            journal_blocks=journal_blocks,
            data_start=pos,
        )

    def encode(self, page_size: int) -> bytes:
        packed = struct.pack(
            _SB_FMT,
            SUPERBLOCK_MAGIC,
            1,
            self.total_blocks,
            self.n_inodes,
            self.inode_bitmap_start,
            self.inode_bitmap_blocks,
            self.block_bitmap_start,
            self.block_bitmap_blocks,
            self.itable_start,
            self.itable_blocks,
            self.journal_start,
            self.journal_blocks,
            1 if self.clean else 0,
        )
        return packed + bytes(page_size - len(packed))

    @staticmethod
    def decode(data: bytes) -> "SuperblockLayout":
        fields = struct.unpack_from(_SB_FMT, data)
        if fields[0] != SUPERBLOCK_MAGIC:
            raise ValueError("bad superblock magic: device not formatted")
        (
            _magic,
            _version,
            total_blocks,
            n_inodes,
            ib_start,
            ib_blocks,
            bb_start,
            bb_blocks,
            it_start,
            it_blocks,
            j_start,
            j_blocks,
            clean,
        ) = fields
        layout = SuperblockLayout(
            total_blocks=total_blocks,
            n_inodes=n_inodes,
            inode_bitmap_start=ib_start,
            inode_bitmap_blocks=ib_blocks,
            block_bitmap_start=bb_start,
            block_bitmap_blocks=bb_blocks,
            itable_start=it_start,
            itable_blocks=it_blocks,
            journal_start=j_start,
            journal_blocks=j_blocks,
            data_start=j_start + j_blocks,
            clean=bool(clean),
        )
        return layout


@dataclass
class Extent:
    """A run of contiguous file pages: file pages [logical, logical+length)
    live in device blocks [start, start+length)."""

    logical: int
    start: int
    length: int

    @property
    def logical_end(self) -> int:
        return self.logical + self.length

    def encode(self) -> bytes:
        return struct.pack(_EXTENT_FMT, self.logical, self.start, self.length)

    @staticmethod
    def decode(data: bytes) -> "Extent":
        logical, start, length = struct.unpack_from(_EXTENT_FMT, data)
        return Extent(logical, start, length)


@dataclass
class Inode:
    """In-memory inode, serialized as two 64 B halves."""

    ino: int
    mode: int = FT_FILE
    links: int = 1
    size: int = 0
    mtime: float = 0.0
    ctime: float = 0.0
    flags: int = 0
    extents: List[Extent] = field(default_factory=list)
    extent_block: int = 0  # 0 = none

    @property
    def is_dir(self) -> bool:
        return self.mode == FT_DIR

    # -- lower half: size, times, links, mode --------------------------- #

    def encode_lower(self) -> bytes:
        return _LOWER_HALF.pack(
            self.size,
            self.mtime,
            self.ctime,
            self.links,
            self.mode,
            self.flags,
        )

    def decode_lower(self, data: bytes) -> None:
        (
            self.size,
            self.mtime,
            self.ctime,
            self.links,
            self.mode,
            self.flags,
        ) = struct.unpack_from(_LOWER_FMT, data)

    # -- upper half: extent header + 3 inline extents ------------------- #

    def encode_upper(self) -> bytes:
        hdr = struct.pack(
            _UPPER_HDR_FMT, len(self.extents), 0, self.extent_block
        )
        body = b"".join(
            e.encode() for e in self.extents[:INLINE_EXTENTS]
        )
        packed = hdr + body
        return packed + bytes(INODE_HALF - len(packed))

    def decode_upper(self, data: bytes) -> int:
        """Parse the upper half; returns the total extent count (extents
        beyond the inline ones must be read from ``extent_block``)."""
        count, _pad, self.extent_block = struct.unpack_from(
            _UPPER_HDR_FMT, data
        )
        self.extents = []
        hdr = struct.calcsize(_UPPER_HDR_FMT)
        for i in range(min(count, INLINE_EXTENTS)):
            off = hdr + i * EXTENT_SIZE
            self.extents.append(Extent.decode(data[off : off + EXTENT_SIZE]))
        return count

    def encode(self) -> bytes:
        return self.encode_lower() + self.encode_upper()

    @staticmethod
    def decode(ino: int, data: bytes) -> Tuple["Inode", int]:
        """Returns (inode, total extent count)."""
        inode = Inode(ino)
        inode.decode_lower(data[:INODE_HALF])
        count = inode.decode_upper(data[INODE_HALF:INODE_SIZE])
        return inode, count

    def is_allocated(self) -> bool:
        return self.links > 0 and self.mode != 0


def encode_extent_block(extents: List[Extent], page_size: int) -> bytes:
    """Spilled extents (beyond the 3 inline ones) as one block image."""
    body = b"".join(e.encode() for e in extents)
    if len(body) > page_size:
        raise ValueError("too many extents for one extent block")
    return body + bytes(page_size - len(body))


def decode_extent_block(data: bytes, count: int) -> List[Extent]:
    out = []
    for i in range(count):
        off = i * EXTENT_SIZE
        out.append(Extent.decode(data[off : off + EXTENT_SIZE]))
    return out


# ---------------------------------------------------------------------- #
# directory entries
# ---------------------------------------------------------------------- #


def dentry_record_size(name_len: int) -> int:
    """Bytes one record occupies (header + name, 8 B aligned)."""
    return DENTRY_HEADER + -(-name_len // DENTRY_ALIGN) * DENTRY_ALIGN


# Pure memo cache: the value is a function of the key alone, so
# per-process copies diverging across shard workers can never change
# the encoded bytes — safe to keep module-level.
_DENTRY_CACHE: dict = {}  # repro: allow[CONC001]


def encode_dentry(ino: int, ftype: int, name: str) -> bytes:
    # Pure function of its arguments, and directory flushes re-encode
    # every live entry on each rewrite — memoize the record bytes.
    key = (ino, ftype, name)
    rec = _DENTRY_CACHE.get(key)
    if rec is not None:
        return rec
    raw = name.encode()
    if not 0 < len(raw) <= MAX_NAME:
        raise ValueError(f"bad name length {len(raw)}")
    rec = struct.pack("<IHH", ino, ftype, len(raw)) + raw
    size = dentry_record_size(len(raw))
    rec = rec + bytes(size - len(rec))
    if len(_DENTRY_CACHE) >= 65536:
        _DENTRY_CACHE.clear()
    _DENTRY_CACHE[key] = rec
    return rec


def decode_dentries(block: bytes):
    """Yield (offset, record_size, ino, ftype, name) for every record slot
    in a directory block, including tombstones (ino == 0)."""
    off = 0
    while off + DENTRY_HEADER <= len(block):
        ino, ftype, name_len = struct.unpack_from("<IHH", block, off)
        if ino == 0 and name_len == 0:
            break  # end of records in this block
        size = dentry_record_size(max(1, name_len))
        name = block[off + DENTRY_HEADER : off + DENTRY_HEADER + name_len].decode(
            errors="replace"
        )
        yield off, size, ino, ftype, name
        off += size
