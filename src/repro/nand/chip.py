"""The flash chip array: holds the bytes of every page a mapped read can
reach and enforces NAND physics.

* Pages must be erased before they can be programmed again.
* Erase operates on whole blocks and bumps a wear counter.
* Reads of never-programmed pages return zeros (like a fresh drive).
* A page the FTL has invalidated (overwritten out of place, trimmed)
  stays programmed until its block is erased, but its bytes are gone:
  no mapping leads to them, so reading one is an error, not dead data.

Timing is *not* charged here; the FTL charges channel time through the
shared :class:`~repro.sim.resources.ChannelArray` so that background work
(GC, log cleaning) and foreground I/O contend realistically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.nand.geometry import FlashGeometry
from repro.nand.image import filled, same_filled


class FlashError(Exception):
    """Violation of NAND programming rules (program-before-erase, etc.)."""


#: Slot marker: programmed, image released.
RELEASED = object()


class FlashArray:
    """Backing store for the simulated device.

    One slot per physical page, indexed by PPA, in one of three states:
    ``None`` is an erased page, ``bytes`` is the programmed image, and
    ``RELEASED`` is a programmed page whose image was dropped when the
    FTL invalidated it.  A slot is a pointer, so a "32 GB" device costs
    only the pages that are mapped, however long the run — and a page
    that is one byte repeated costs only the pointer: every slot holding
    that fill points at one shared image (:mod:`repro.nand.image`), as
    does an erased page's read.
    Range checks are explicit everywhere a PPA or block id comes in: a
    list would quietly take a negative index from its far end.
    """

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self._total_pages = geometry.total_pages
        self._page_size = geometry.page_size
        self._pages: List[object] = [None] * geometry.total_pages
        self.erase_counts: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.erases = 0

    def read_page(self, ppa: int) -> bytes:
        """Read one full page; unprogrammed pages read as zeros, a
        released one is an error."""
        if not 0 <= ppa < self._total_pages:
            self._check_ppa(ppa)
        data = self._pages[ppa]
        if data is RELEASED:
            raise FlashError(
                f"read of invalidated page {ppa}: its image was released"
            )
        self.reads += 1
        if data is None:
            return filled(0, self._page_size)
        return data

    def program_page(self, ppa: int, data: bytes) -> None:
        """Program one page; re-programming without erase is an error."""
        if not 0 <= ppa < self._total_pages:
            self._check_ppa(ppa)
        pages = self._pages
        if pages[ppa] is not None:
            raise FlashError(
                f"page {ppa} already programmed; erase block first"
            )
        n = len(data)
        page_size = self._page_size
        if n != page_size:
            if n > page_size:
                raise FlashError(
                    f"data ({n} B) exceeds page size ({page_size} B)"
                )
            data = data + bytes(page_size - n)
        # A same-filled page is the one shared image (only a page whose
        # first and last bytes agree can be one); any other skips the
        # defensive copy when the caller already handed over an immutable
        # image (the common case on the write path).
        if data[0] == data[-1]:
            data = same_filled(data)
        pages[ppa] = data if type(data) is bytes else bytes(data)
        self.writes += 1

    def invalidate_page(self, ppa: int) -> None:
        """The FTL dropped its mapping to ``ppa``: release the image.
        The page stays programmed until its block is erased."""
        if not 0 <= ppa < self._total_pages:
            self._check_ppa(ppa)
        pages = self._pages
        if pages[ppa] is not None:
            pages[ppa] = RELEASED

    def erase_block(self, block_id: int) -> None:
        """Erase every page in a block."""
        if not 0 <= block_id < self.geometry.total_blocks:
            raise FlashError(f"block id {block_id} out of range")
        n = self.geometry.pages_per_block
        base = block_id * n
        self._pages[base : base + n] = [None] * n
        self.erase_counts[block_id] = self.erase_counts.get(block_id, 0) + 1
        self.erases += 1

    def is_programmed(self, ppa: int) -> bool:
        self._check_ppa(ppa)
        return self._pages[ppa] is not None

    def wear(self, block_id: int) -> int:
        return self.erase_counts.get(block_id, 0)

    def _check_ppa(self, ppa: int) -> None:
        if not 0 <= ppa < self._total_pages:
            raise FlashError(f"ppa {ppa} out of range")
