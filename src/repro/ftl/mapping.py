"""Page-level logical-to-physical mapping with a reverse map for GC."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import fssan
from repro.nand.chip import FlashError


class PageMap:
    """LPA -> PPA map plus the PPA -> LPA reverse map GC needs.

    The reverse map is a list indexed by PPA (``None`` = no live page
    there): physical addresses are dense and bounded by the geometry, so
    GC reads a victim block's owners as one slice.  The forward map stays
    a dict: LPAs are chosen by the caller and unbounded at this surface.
    PPAs are range-checked explicitly — a list would quietly take a
    negative one from its far end.
    """

    def __init__(self, n_ppas: int) -> None:
        self._l2p: Dict[int, int] = {}
        self._p2l: List[Optional[int]] = [None] * n_ppas

    def lookup(self, lpa: int) -> Optional[int]:
        return self._l2p.get(lpa)

    def reverse(self, ppa: int) -> Optional[int]:
        if not 0 <= ppa < len(self._p2l):
            raise FlashError(f"ppa {ppa} out of range")
        return self._p2l[ppa]

    def reverse_range(self, lo: int, hi: int) -> List[Optional[int]]:
        """The owners of PPAs ``lo`` .. ``hi - 1`` (a copy: binds made
        while walking it do not show)."""
        if not 0 <= lo <= hi <= len(self._p2l):
            raise FlashError(f"ppa range [{lo}, {hi}) out of range")
        return self._p2l[lo:hi]

    def bind(self, lpa: int, ppa: int) -> Optional[int]:
        """Map ``lpa`` to ``ppa``; return the PPA it previously mapped to
        (now invalid), or None."""
        p2l = self._p2l
        if not 0 <= ppa < len(p2l):
            raise FlashError(f"ppa {ppa} out of range")
        if fssan.ENABLED:
            fssan.check_map_steal(p2l, lpa, ppa)
        old = self._l2p.get(lpa)
        if old is not None:
            p2l[old] = None
        self._l2p[lpa] = ppa
        p2l[ppa] = lpa
        if fssan.ENABLED:
            fssan.check_map_bind(self._l2p, p2l, lpa, ppa)
        return old

    def unbind(self, lpa: int) -> Optional[int]:
        """Drop the mapping for ``lpa`` (trim); return the freed PPA."""
        ppa = self._l2p.pop(lpa, None)
        if ppa is not None:
            self._p2l[ppa] = None
        return ppa

    def mapped_lpas(self):
        return self._l2p.keys()

    def __len__(self) -> int:
        return len(self._l2p)

    def __contains__(self, lpa: int) -> bool:
        return lpa in self._l2p
