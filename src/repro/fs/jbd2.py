"""A JBD2-style physical block journal (Ext4 ordered mode, §3.3).

Commit writes a descriptor block, the images of every dirty metadata
block, and a commit block into the on-device journal area — the *double
write* the paper charges Ext4 with (30.7 % of its traffic on average).
Checkpointing later writes the journaled images in place; it is deferred
until the journal area fills (or unmount), so crash recovery genuinely
replays the journal.

Journal record format (all little-endian):

* descriptor: magic ``0x1BD20001``, type 1, seq (8 B), count (4 B),
  then ``count`` target block numbers (8 B each);
* followed by ``count`` raw block images;
* commit block: magic, type 2, seq.

Journal block 0 is a header holding the sequence number up to which
transactions have been checkpointed; a mount numbers on from it.
"""

from __future__ import annotations

import struct
from itertools import groupby
from typing import Callable, Dict, List, Optional, Tuple

from repro.stats.traffic import StructKind

JMAGIC = 0x1BD20001
_DESC_FMT = "<IIQI"
_COMMIT_FMT = "<IIQ"
_HEADER_FMT = "<IIQ"
_DESC_SIZE = struct.calcsize(_DESC_FMT)
TYPE_DESC = 1
TYPE_COMMIT = 2
TYPE_HEADER = 3


class JournalFullError(Exception):
    pass


class JBD2:
    """The journaling layer.  ``fs`` must provide:

    * ``device`` with ``read_blocks``, ``write_blocks``,
      ``write_block_run`` and ``write_pages``;
    * ``_snapshot_block(blkno) -> bytes`` returning the current image of a
      managed metadata block;
    * ``_flush_ordered()`` writing back dirty data pages of inodes touched
      since the last commit (ordered mode: data before metadata).
    """

    def __init__(self, fs, journal_start: int, journal_blocks: int) -> None:
        if journal_blocks < 8:
            raise ValueError("journal too small")
        self.fs = fs
        self.start = journal_start
        self.nblocks = journal_blocks
        self.page_size = fs.device.page_size
        self.seq = 1
        self.head = 1  # next free slot within the journal area
        self.checkpoint_seq = 0
        #: blocks committed to the journal but not yet written in place:
        #: blkno -> (image at commit time, kind)
        self.pending: Dict[int, Tuple[bytes, StructKind]] = {}
        #: blocks dirtied since the last commit: blkno -> kind
        self.running: Dict[int, StructKind] = {}
        #: journaled *data* block images (ByteFS data-journaling mode,
        #: §4.6: JBD2 combined with ByteFS transactions)
        self.running_data: Dict[int, bytes] = {}
        self.commits = 0
        self.checkpoints = 0

    # ------------------------------------------------------------------ #

    def mark_dirty(self, blkno: int, kind: StructKind) -> None:
        self.running[blkno] = kind

    def mark_dirty_data(self, blkno: int, image: bytes) -> None:
        """Stage a data block image for journaling (data-journal mode)."""
        self.running_data[blkno] = bytes(image)

    def forget(self, blkno: int) -> None:
        """Drop a freed block from the journal (JBD2's 'forget')."""
        self.running.pop(blkno, None)
        self.running_data.pop(blkno, None)
        self.pending.pop(blkno, None)

    def has_running(self) -> bool:
        return bool(self.running) or bool(self.running_data)

    def commit(self) -> None:
        """Commit the running transaction (ordered mode)."""
        if not self.running and not self.running_data:
            return
        self.fs._flush_ordered()
        images = {b: self.fs._snapshot_block(b) for b in self.running}
        for blkno, image in self.running_data.items():
            images.setdefault(blkno, image)
            self.running.setdefault(blkno, StructKind.DATA)
        self.running_data.clear()
        blknos = sorted(images)
        needed = 1 + len(blknos) + 1
        if (
            needed > self.nblocks - 1
            or _DESC_SIZE + 8 * len(blknos) > self.page_size
        ):
            raise JournalFullError(
                f"transaction of {len(blknos)} blocks exceeds the journal "
                f"area or one descriptor block"
            )
        if self.head + needed > self.nblocks:
            # Wrap: everything live must be checkpointed before reuse.
            self.checkpoint()
            self.head = 1
        page_size = self.page_size
        desc = struct.pack(
            f"{_DESC_FMT}{len(blknos)}Q",
            JMAGIC, TYPE_DESC, self.seq, len(blknos), *blknos,
        ).ljust(page_size, b"\0")
        commit = struct.pack(
            _COMMIT_FMT, JMAGIC, TYPE_COMMIT, self.seq
        ).ljust(page_size, b"\0")
        # The record goes to the device as its page images, unjoined.
        self.fs.device.write_block_run(
            self.start + self.head,
            [desc, *map(images.__getitem__, blknos), commit],
            StructKind.JOURNAL,
        )
        self.head += needed
        for b in blknos:
            self.pending[b] = (images[b], self.running[b])
        self.running.clear()
        self.seq += 1
        self.commits += 1

    def checkpoint(self) -> None:
        """Write journaled images in place and advance the header."""
        if not self.pending:
            return
        # One scatter write per run of blocks of one kind (the traffic
        # accounting is per kind), in block order.
        pending = self.pending
        for kind, blknos in groupby(
            sorted(pending), key=lambda blkno: pending[blkno][1]
        ):
            self.fs.device.write_pages(
                [(blkno, pending[blkno][0]) for blkno in blknos], kind
            )
        self.pending.clear()
        self.checkpoint_seq = self.seq - 1
        self._write_header()
        self.checkpoints += 1

    def load(self) -> None:
        """Learn from the header how far transactions were checkpointed,
        once per mount (:meth:`replay` begins with it).  Sequence numbers
        go on from there, so a record this mount commits is never one a
        later replay skips."""
        header = self.fs.device.read_blocks(self.start, 1, StructKind.JOURNAL)
        magic, btype, seq = struct.unpack_from(_HEADER_FMT, header)
        valid = magic == JMAGIC and btype == TYPE_HEADER
        self.checkpoint_seq = seq if valid else 0
        self.seq = self.checkpoint_seq + 1

    def _write_header(self) -> None:
        hdr = struct.pack(_HEADER_FMT, JMAGIC, TYPE_HEADER, self.checkpoint_seq)
        hdr += bytes(self.page_size - len(hdr))
        self.fs.device.write_blocks(self.start, hdr, StructKind.JOURNAL)

    # ------------------------------------------------------------------ #
    # crash recovery
    # ------------------------------------------------------------------ #

    def replay(self) -> int:
        """Scan the journal area and re-apply committed transactions.

        Returns the number of transactions replayed.  Incomplete records
        (descriptor without a matching commit block) are discarded, which
        is what makes un-fsynced Ext4 operations vanish after a crash.
        Records at or below the header's ``checkpoint_seq`` are already
        in place and are skipped.
        """
        self.load()
        device = self.fs.device
        checkpoint_seq = self.checkpoint_seq
        txs: List[Tuple[int, Dict[int, bytes], Dict[int, StructKind]]] = []
        off = 1
        while off < self.nblocks:
            block = device.read_blocks(self.start + off, 1, StructKind.JOURNAL)
            magic, btype, seq, count = (
                struct.unpack_from(_DESC_FMT, block)
                if len(block) >= _DESC_SIZE
                else (0, 0, 0, 0)
            )
            if magic != JMAGIC or btype != TYPE_DESC:
                break
            blknos = [
                struct.unpack_from("<Q", block, _DESC_SIZE + 8 * i)[0]
                for i in range(count)
            ]
            if off + 1 + count + 1 > self.nblocks:
                break
            images_raw = device.read_blocks(
                self.start + off + 1, count, StructKind.JOURNAL
            )
            commit_block = device.read_blocks(
                self.start + off + 1 + count, 1, StructKind.JOURNAL
            )
            cmagic, ctype, cseq = struct.unpack_from(_COMMIT_FMT, commit_block)
            if cmagic != JMAGIC or ctype != TYPE_COMMIT or cseq != seq:
                break  # incomplete transaction: discard it and stop
            images = {
                b: images_raw[i * self.page_size : (i + 1) * self.page_size]
                for i, b in enumerate(blknos)
            }
            txs.append((seq, images, {}))
            off += 1 + count + 1
        replayed = 0
        for seq, images, _kinds in sorted(txs, key=lambda t: t[0]):
            if seq <= checkpoint_seq:
                continue
            device.write_pages(
                [(blkno, images[blkno]) for blkno in sorted(images)],
                StructKind.JOURNAL,
            )
            replayed += 1
        # The header bounds the sequence from below: the newest record
        # found may be older than the last checkpoint (none found, or
        # the first record after a wrap torn).
        self.seq = max([checkpoint_seq] + [t[0] for t in txs]) + 1
        self.checkpoint_seq = self.seq - 1
        self.head = 1
        self.pending.clear()
        self.running.clear()
        if replayed:
            self._write_header()
        return replayed
