"""Page-level logical-to-physical mapping with a reverse map for GC."""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.analysis import fssan
from repro.nand.chip import FlashError

#: the slot value of an unmapped LPA (forward) or an ownerless PPA (reverse)
UNMAPPED = -1


class PageMap:
    """LPA -> PPA map plus the PPA -> LPA reverse map GC needs.

    Both directions are packed ``array('i')`` of ``n_pages`` slots, -1
    meaning unmapped: 4 B an entry, as a drive's L2P table in device
    DRAM is, and no int object per mapped page.  Both sides are
    bounded by the geometry: a PPA or an LPA is an index in
    ``[0, n_pages)``.  ``bind`` refuses one outside it (``FlashError``,
    nothing touched); ``lookup``, ``unbind`` and ``in`` answer
    "unmapped" for an LPA outside it, as do the FTL's reads of the
    array (the device cache's prefetcher probes past the end).  The
    range checks are explicit: an array would quietly take a negative
    index from its far end.
    """

    def __init__(self, n_pages: int) -> None:
        assert n_pages < 2**31, "slots are signed 32-bit"
        self._l2p = array("i", [UNMAPPED]) * n_pages
        self._p2l = array("i", [UNMAPPED]) * n_pages

    def lookup(self, lpa: int) -> Optional[int]:
        l2p = self._l2p
        if 0 <= lpa < len(l2p):
            ppa = l2p[lpa]
            if ppa >= 0:
                return ppa
        return None

    def reverse(self, ppa: int) -> Optional[int]:
        p2l = self._p2l
        if not 0 <= ppa < len(p2l):
            raise FlashError(f"ppa {ppa} out of range")
        lpa = p2l[ppa]
        return lpa if lpa >= 0 else None

    def reverse_range(self, lo: int, hi: int) -> array:
        """The owners of PPAs ``lo`` .. ``hi - 1``, -1 for none (a copy:
        binds made while walking it do not show)."""
        if not 0 <= lo <= hi <= len(self._p2l):
            raise FlashError(f"ppa range [{lo}, {hi}) out of range")
        return self._p2l[lo:hi]

    def bind(self, lpa: int, ppa: int) -> Optional[int]:
        """Map ``lpa`` to ``ppa``; return the PPA it previously mapped to
        (now invalid), or None."""
        l2p = self._l2p
        p2l = self._p2l
        n = len(p2l)
        if not 0 <= ppa < n:
            raise FlashError(f"ppa {ppa} out of range")
        if not 0 <= lpa < n:
            raise FlashError(f"lpa {lpa} out of range")
        if fssan.ENABLED:
            fssan.check_map_steal(p2l, lpa, ppa)
        old = l2p[lpa]
        if old >= 0:
            p2l[old] = UNMAPPED
        l2p[lpa] = ppa
        p2l[ppa] = lpa
        if fssan.ENABLED:
            fssan.check_map_bind(l2p, p2l, lpa, ppa)
        return old if old >= 0 else None

    def unbind(self, lpa: int) -> Optional[int]:
        """Drop the mapping for ``lpa`` (trim); return the freed PPA."""
        l2p = self._l2p
        if not 0 <= lpa < len(l2p):
            return None
        ppa = l2p[lpa]
        if ppa < 0:
            return None
        l2p[lpa] = UNMAPPED
        self._p2l[ppa] = UNMAPPED
        return ppa

    def mapped_lpas(self) -> List[int]:
        """The mapped LPAs, ascending."""
        return [lpa for lpa, ppa in enumerate(self._l2p) if ppa >= 0]

    def __len__(self) -> int:
        return len(self._l2p) - self._l2p.count(UNMAPPED)

    def __contains__(self, lpa: int) -> bool:
        l2p = self._l2p
        return 0 <= lpa < len(l2p) and l2p[lpa] >= 0
