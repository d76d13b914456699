"""Memory-mapped file I/O (§4.6, "Memory-Mapped I/O").

ByteFS maps cached DRAM pages into the application's address space; the
interface-selection mechanism (CoW + modified ratio) applies to mapped
pages exactly as to buffered writes.  ``msync`` triggers the same
policy-driven writeback as ``fsync``.

The mapping object below stands in for the mapped region: loads and
stores hit the host page cache directly (no syscall cost), faulting
pages in from the device on first touch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fs.errors import InvalidArgument

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.extfs import ExtFS


class MappedRegion:
    """A file region mapped into simulated application memory."""

    def __init__(self, fs: "ExtFS", ino: int, offset: int, length: int):
        if offset % fs.P != 0:
            raise InvalidArgument("mmap offset must be page aligned")
        self.fs = fs
        self.ino = ino
        self.offset = offset
        self.length = length
        self.closed = False

    def _check(self, off: int, n: int) -> None:
        if self.closed:
            raise InvalidArgument("mapping is closed")
        if off < 0 or off + n > self.length:
            raise InvalidArgument(
                f"access [{off}, {off + n}) outside mapping of "
                f"{self.length} bytes"
            )

    def _fault_page(self, pidx: int):
        """Fault a page into the cache (the mmap page-fault path)."""
        fs = self.fs
        page = fs.page_cache.lookup(self.ino, pidx)
        if page is None:
            page = fs._fill_page(fs._get_inode(self.ino), pidx)
            fs.stats.bump("mmap_page_faults")
        return page

    def load(self, off: int, n: int) -> bytes:
        """Read ``n`` bytes at mapping offset ``off`` (plain loads)."""
        self._check(off, n)
        fs = self.fs
        P = fs.P
        fault = self._fault_page
        pos = self.offset + off
        end = pos + n
        poff = pos % P
        if 0 < n <= P - poff:
            # The load stays inside one page: one copy out of it.
            data = fault(pos // P).data
            out = bytes(data) if n == P else bytes(data[poff : poff + n])
        else:
            pieces = []
            while pos < end:
                poff = pos % P
                take = min(P - poff, end - pos)
                pieces.append(fault(pos // P).data[poff : poff + take])
                pos += take
            out = b"".join(pieces)
        fs.clock.advance(fs.timing.host_memcpy_ns(n))
        return out

    def store(self, off: int, data: bytes) -> None:
        """Write ``data`` at mapping offset ``off`` (plain stores; CoW
        tracks the dirty cachelines for the msync policy)."""
        self._check(off, len(data))
        fs = self.fs
        P = fs.P
        mark_page_dirty = fs.page_cache.mark_page_dirty
        cow = fs.cfg.data_byte_policy
        nbytes = len(data)
        pos = self.offset + off
        i = 0
        while i < nbytes:
            poff = pos % P
            take = min(P - poff, nbytes - i)
            page = self._fault_page(pos // P)
            mark_page_dirty(page, cow)
            page.data[poff : poff + take] = data[i : i + take]
            pos += take
            i += take
        inode = fs._get_inode(self.ino)
        end_off = self.offset + off + nbytes
        if end_off > inode.size:
            inode.size = end_off
        fs.clock.advance(fs.timing.host_memcpy_ns(nbytes))

    def msync(self) -> None:
        """Flush the mapping durably (same policy path as fsync)."""
        if self.closed:
            raise InvalidArgument("mapping is closed")
        self.fs._syscall()
        self.fs._fsync(self.ino, data_only=False)

    def close(self) -> None:
        self.closed = True
