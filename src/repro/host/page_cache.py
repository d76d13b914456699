"""The host page cache with copy-on-write modified-ratio tracking (§4.6).

ByteFS tracks writes to cached pages by duplicating the original page on
first modification (CoW).  At writeback time it diffs the current page
against the duplicate (the paper's XOR pass) to find the dirty 64 B
chunks and the modified ratio ``R``; pages with ``R < 1/8`` are persisted
through the byte interface, others through the block interface.  The
duplicate pages are tracked in an XArray-like per-inode index
(``address_space``) just like normal cached pages.

The diff is :func:`dirty_line_indices`, a probe that stops as soon as the
policy question is answered: an untouched page is one whole-buffer
comparison, a rewritten page is decided by its leading ``limit`` lines,
and only a page that is neither is split into lines and compared line
by line.  Every comparison is ``==`` on buffers, i.e. C ``memcmp``.

Ext4/F2FS use the same cache without CoW (they always write back whole
pages over the block interface).

A page image is held once.  ``CachedPage.data`` is the immutable
``bytes`` the page was installed with — on a read miss the flash array's
(or device-cache frame's) own object, on a whole-page write (of a page
cached already or not) the slice of the application buffer — until the
first store into it:
:meth:`PageCache.mark_page_dirty` takes the one private ``bytearray``
copy, the CoW duplicate is the old image itself, and write-back leaves
the ``bytes`` it handed the device as ``page.data``.  A clean page
therefore costs a pointer, and a store that skips ``mark_page_dirty``
fails with ``TypeError`` instead of scribbling over the device's image.
A page that is one byte repeated is held once across pages too: a
whole-page write and a write-back keep the one shared image of that
fill (:func:`repro.nand.image.same_filled`), which the device holds.

Eviction takes the first clean-or-stale page in LRU order.  The index
that finds it files each such key once: a key that turns evictable as
the most recently used one — every read fill and every clean hit — goes
to the end of an LRU-ordered dict, so a read fill evicts that dict's
head in :meth:`PageCache.install`'s own frame, with no heap operation; a
key that turns evictable while older — write-back cleaning, a truncate
behind the cache's back — goes to a stamp heap.  The index never holds
more keys than the cache; :class:`PageCache` says why its pick is exact.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from functools import lru_cache
from heapq import heapify, heappop, heappush, heapreplace
from itertools import compress
from operator import ne
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.nand.image import filled, same_filled_at

CACHELINE = 64


@lru_cache(maxsize=8)
def _lines(n: int) -> struct.Struct:
    """The layout that splits a buffer into ``n`` cachelines at C speed."""
    return struct.Struct(f"{CACHELINE}s" * n)


def dirty_line_indices(
    cur: Union[bytes, bytearray], old: bytes, limit: int
) -> Optional[List[int]]:
    """Diff one CoW page against its duplicate, line by line.

    Returns the ascending indices of the 64 B cachelines of ``cur`` that
    differ from ``old`` — or ``None`` as soon as ``limit`` or more of
    them are known to (the caller then wants the whole page, not the
    list).  This is the one definition of "dirty line".  Both buffers
    must be the same whole number of lines long.
    """
    if limit <= 0:
        return None
    if cur == old:
        return []
    n = len(cur) // CACHELINE
    if limit <= n:
        # A page rewritten wholesale differs in every line: its leading
        # ``limit`` lines settle it without touching the rest.
        head = _lines(limit).unpack_from
        if all(map(ne, head(cur), head(old))):
            return None
    split = _lines(n).unpack  # raises on a partial line or unequal sizes
    lines = list(compress(range(n), map(ne, split(cur), split(old))))
    return None if len(lines) >= limit else lines


def line_runs(lines: List[int]) -> List[Tuple[int, int]]:
    """Coalesce ascending dirty line indices into (offset, length) runs."""
    if not lines:
        return []
    runs: List[Tuple[int, int]] = []
    start = prev = lines[0]
    for i in lines[1:]:
        if i != prev + 1:
            runs.append((start * CACHELINE, (prev + 1 - start) * CACHELINE))
            start = i
        prev = i
    runs.append((start * CACHELINE, (prev + 1 - start) * CACHELINE))
    return runs


def _page_image(data: bytes, page_size: int) -> bytes:
    """``data`` as an immutable page image, zero-padded to ``page_size``.
    (``bytes`` of exact ``bytes`` is the object itself: no copy.)"""
    if len(data) < page_size:
        data = data + bytes(page_size - len(data))
    return bytes(data)


class CachedPage:
    """One cached file page, with an optional CoW duplicate.

    ``data`` is immutable ``bytes`` — shared with whoever handed it over
    or took it at write-back — until the first store; whoever stores
    into the page dirties it first (:meth:`PageCache.mark_page_dirty`,
    or :meth:`mark_dirty` outside a cache), which makes ``data`` a
    private ``bytearray``, or patches a clean page through
    :meth:`writable`.  ``original`` is the image the page had when it
    was first dirtied, not a copy of it.

    ``_key``/``_notify`` are set by the owning :class:`PageCache` so that
    :meth:`clean` can report dirty->clean transitions (file systems call
    it directly on writeback); the cache uses them to keep its eviction
    candidate index and the inode's dirty index exact; for the same
    reason a page that is in a cache is dirtied through
    :meth:`PageCache.mark_page_dirty` and :meth:`mark_dirty` refuses it.
    """

    __slots__ = ("data", "dirty", "original", "_key", "_notify")

    def __init__(self, data: bytes, page_size: int) -> None:
        self.data: Union[bytes, bytearray] = _page_image(data, page_size)
        self.dirty = False
        self.original: Optional[bytes] = None  # CoW duplicate page
        self._key: Optional[Tuple[int, int]] = None
        self._notify: Optional[Callable[["CachedPage"], None]] = None

    def mark_dirty(self, cow: bool) -> None:
        if self._notify is not None:
            raise RuntimeError(
                "page is in a cache: dirty it with PageCache.mark_page_dirty"
            )
        if cow and self.original is None:
            # First modification: keep the pristine page (§4.6).
            self.original = bytes(self.data)
        self.writable()
        self.dirty = True

    def writable(self) -> bytearray:
        """``data`` as a private buffer, copied out of the shared image
        on first use.  Without a dirtying call this is for patching a
        page that stays coherent with the device (O_DIRECT writes)."""
        data = self.data
        if type(data) is bytes:
            data = self.data = bytearray(data)
        return data

    def dirty_chunks(self) -> List[Tuple[int, int]]:
        """(offset, length) runs of modified 64 B cachelines, via XOR diff.

        Without a CoW duplicate the whole page is considered modified.
        """
        if self.original is None:
            return [(0, len(self.data))]
        # (A limit no page reaches: the full list, never ``None``.)
        past = len(self.data) // CACHELINE + 1
        return line_runs(dirty_line_indices(self.data, self.original, past))

    def modified_ratio(self) -> float:
        """R = modified cachelines / total cachelines (§4.6)."""
        if self.original is None:
            return 1.0
        total = len(self.data) // CACHELINE
        lines = dirty_line_indices(self.data, self.original, total + 1)
        return len(lines) / total

    def clean(self) -> None:
        self.dirty = False
        self.original = None
        notify = self._notify
        if notify is not None:
            notify(self)


class AddressSpace:
    """Per-inode page index (the kernel's ``struct address_space``).

    ``on_drop`` (set by the owning :class:`PageCache`) is notified when a
    present page is dropped, so the cache can track keys whose LRU entry
    went stale behind its back (file systems truncate by calling
    :meth:`drop` directly).

    ``dirty`` indexes the dirty pages of ``pages``.  It is kept where a
    page changes state — the cache's installs, ``mark_page_dirty``,
    ``CachedPage.clean`` and eviction, and :meth:`drop` here — so that
    an fsync touches the pages it writes and not every cached page of
    the file.

    A dict keeps the table of its largest size when entries are
    deleted, so eviction ``clear()``s both dicts when it takes a
    space's last page: an emptied space holds no table.  The space
    itself stays, and so does its place in the cache's ``_spaces``,
    whose order :meth:`PageCache.all_dirty` reports in.
    """

    def __init__(
        self,
        ino: int,
        page_size: int,
        on_drop: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.ino = ino
        self.page_size = page_size
        self.pages: Dict[int, CachedPage] = {}
        self.dirty: Dict[int, CachedPage] = {}
        self._on_drop = on_drop

    def get(self, index: int) -> Optional[CachedPage]:
        return self.pages.get(index)

    def drop(self, index: int) -> None:
        if self.pages.pop(index, None) is not None:
            self.dirty.pop(index, None)
            if self._on_drop is not None:
                self._on_drop(self.ino, index)

    def dirty_pages(self) -> List[Tuple[int, CachedPage]]:
        """The dirty ``(index, page)`` pairs, in index order."""
        return sorted(self.dirty.items())

    def __len__(self) -> int:
        return len(self.pages)


#: writeback callback: an ordered run of dirty (ino, page_index, page)
#: victims -> None.  Must leave every page clean.
WritebackFn = Callable[[List[Tuple[int, int, CachedPage]]], None]


class PageCache:
    """Global page cache across inodes, with LRU eviction.

    Eviction prefers clean pages; a dirty victim is written back through
    the owning file system's callback first.  The victim is the first
    clean-or-stale key in LRU order, else the LRU head.

    ``_pos`` stamps each key that holds an LRU slot with the count at
    which it last moved to the ``_lru`` end, so stamps rise along
    ``_lru``.  Every clean-or-stale key is filed in at least one of:

    * ``_clean``, an insertion-ordered dict kept in LRU order.  A key
      joins it at the end when it turns clean or stale holding the
      newest stamp (so it is the most recently used key), or when it is
      hit while clean; it leaves when it is dirtied or evicted.
    * ``_late``, a heap of ``(stamp, key)`` for the keys that turn clean
      or stale while older than that: write-back cleaning and drops
      behind the cache's back.  It has at most one entry per key
      (``_late_keys`` names them) and only for keys that hold a slot.
      An entry carries the stamp its key had when it was filed, which a
      later hit only ever raises.

    So the victim is the older of ``_clean``'s head and the oldest
    clean-or-stale key in the heap, and the heap yields that key
    exactly: every entry under-estimates its key's rank, so a top entry
    that matches its key's live stamp is the one; a top entry whose key
    is dirty or in ``_clean`` is dropped, and one whose key was hit
    since is re-filed under the live stamp.  When the top stamp already
    exceeds the head's, the head is the victim and the heap is not
    touched — the only case a read-only run meets.
    """

    def __init__(self, capacity_pages: int, page_size: int) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity must be >= 1")
        if page_size % CACHELINE:
            raise ValueError("page size must be a whole number of cachelines")
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self._spaces: Dict[int, AddressSpace] = {}
        # LRU value = the CachedPage itself: eviction needs no per-entry
        # space lookup.  Keys whose page was dropped behind the cache's
        # back (direct AddressSpace.drop from a truncate path) land in
        # _stale_keys via the space's on_drop hook; a stale key still
        # occupies an LRU slot and is victimized like a clean page.
        self._lru: "OrderedDict[Tuple[int, int], CachedPage]" = OrderedDict()
        self._stale_keys: set = set()
        # The victim index (class docstring).
        self._pos: Dict[Tuple[int, int], int] = {}
        self._ctr = 0
        self._clean: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._late: List[Tuple[int, Tuple[int, int]]] = []
        self._late_keys: set = set()
        # (One bound method for every page's clean() to report through.)
        self._on_clean = self._note_clean
        self.hits = 0
        self.misses = 0
        self.cow_copies = 0

    # ------------------------------------------------------------------ #

    def space(self, ino: int) -> AddressSpace:
        space = self._spaces.get(ino)
        if space is None:
            space = AddressSpace(ino, self.page_size, self._note_drop)
            self._spaces[ino] = space
        return space

    def _note_drop(self, ino: int, index: int) -> None:
        key = (ino, index)
        if key in self._pos:
            self._stale_keys.add(key)
            if key not in self._clean:
                self._file_candidate(key)

    def _note_clean(self, page: CachedPage) -> None:
        key = page._key
        space = self._spaces.get(key[0])
        # (Only a page the index holds as dirty turns its key clean: one
        # that was clean is filed already, and a page cleaned after it
        # was dropped must not touch the one installed in its place.)
        if space is not None and space.dirty.get(key[1]) is page:
            del space.dirty[key[1]]
            self._file_candidate(key)

    def _file_candidate(self, key: Tuple[int, int]) -> None:
        """``key``, which is not in ``_clean``, is clean or stale: file
        it if it holds an LRU slot (class docstring)."""
        stamp = self._pos.get(key)
        if stamp is None:
            return
        if stamp == self._ctr - 1:  # the most recently used key
            self._clean[key] = None
        elif key not in self._late_keys:
            self._late_keys.add(key)
            heappush(self._late, (stamp, key))

    def lookup(self, ino: int, index: int) -> Optional[CachedPage]:
        space = self._spaces.get(ino)
        page = space.pages.get(index) if space is not None else None
        if page is not None:
            self.hits += 1
            key = (ino, index)
            self._lru.move_to_end(key)
            pos = self._ctr
            self._ctr = pos + 1
            self._pos[key] = pos
            if not page.dirty:
                clean = self._clean
                if key in clean:
                    clean.move_to_end(key)
                else:
                    clean[key] = None
        else:
            self.misses += 1
        return page

    def install(
        self, ino: int, index: int, data: bytes, writeback: WritebackFn
    ) -> CachedPage:
        """Cache ``data`` as the clean page ``index`` of ``ino``.

        A read fill, the common case, is this one frame: when the cache
        is full and ``_clean``'s head is the victim, it is unlinked here,
        and the page is built without a constructor call."""
        P = self.page_size
        if type(data) is not bytes or len(data) < P:
            data = _page_image(data, P)
        key = (ino, index)
        lru = self._lru
        pos = self._pos
        clean = self._clean
        if len(lru) >= self.capacity_pages:
            late = self._late
            if clean and (not late or late[0][0] > pos[next(iter(clean))]):
                victim = clean.popitem(last=False)[0]
                del lru[victim]
                del pos[victim]
                stale = self._stale_keys
                if victim in stale:
                    stale.discard(victim)
                else:
                    present = self._spaces[victim[0]].pages
                    del present[victim[1]]
                    if not present:  # its last page: free the tables
                        present.clear()
                        self._spaces[victim[0]].dirty.clear()
            else:
                self._make_room(1, writeback)
        page = object.__new__(CachedPage)  # (``__init__``'s work, inline)
        page.data = data
        page.dirty = False
        page.original = None
        page._key = key
        page._notify = self._on_clean
        space = self._spaces.get(ino)
        if space is None:
            space = self.space(ino)
        space.pages[index] = page
        if key in pos:
            # Re-installing over a key that still holds its LRU slot (a
            # stale one, or a page cached already) keeps its position and
            # stamp: OrderedDict value assignment does not move the entry.
            space.dirty.pop(index, None)
            lru[key] = page
            self._stale_keys.discard(key)
            if key not in clean:
                self._file_candidate(key)
        else:
            pos[key] = self._ctr
            self._ctr += 1
            lru[key] = page
            clean[key] = None
        return page

    def install_dirty_run(
        self,
        ino: int,
        start: int,
        data: bytes,
        offset: int,
        cow: bool,
        writeback: WritebackFn,
    ) -> int:
        """Cache the whole-page writes ``data[offset:]`` holds for the
        consecutive pages ``start``.. that are not cached yet; returns
        how many pages it took.

        Page for page this is a ``lookup`` miss, an ``install`` of a
        zero page (a whole-page write needs no base from the device), a
        ``mark_page_dirty`` and the copy — but room for the whole run is
        made in one go, its dirty victims reach ``writeback`` as one
        ordered batch, and a page's image is its slice of ``data``, not
        a copy of one.  The run stops at the first page that is cached
        (:meth:`overwrite_run` takes those: 0 is returned when that is
        page ``start``) or whose key still holds an LRU slot, and at
        ``capacity_pages``, so that no page of the run is its victim.
        """
        pos = self._pos
        if (ino, start) in pos:
            return 0  # cached, or a stale key that holds its slot
        P = self.page_size
        space = self.space(ino)
        present = space.pages
        limit = min((len(data) - offset) // P, self.capacity_pages)
        n = 0
        while (
            n < limit
            and start + n not in present
            and (ino, start + n) not in pos
        ):
            n += 1
        if n == 0:
            return 0
        self.misses += n
        self._make_room(n, writeback)
        # A whole-page write's CoW duplicate is the image a fresh page
        # would have had, the shared zero page.  (A fresh one per page
        # peaked higher in perfbench, seed 42, four pairs: varmail_sync
        # 41.2 against 41.0 MB, fileserver_bulk 43.4 against 41.1.)
        original = filled(0, P) if cow else None
        dirty_index = space.dirty
        lru = self._lru
        for index in range(start, start + n):
            # (``__init__``'s work, inline; a same-filled page's image is
            # the shared one, any other's is its slice of ``data``)
            page = object.__new__(CachedPage)
            page.data = same_filled_at(data, offset, P) or bytes(
                data[offset : offset + P]
            )
            page.dirty = True
            page.original = original
            page._key = key = (ino, index)
            page._notify = self._on_clean
            present[index] = page
            dirty_index[index] = page
            pos[key] = self._ctr
            self._ctr += 1
            lru[key] = page
            offset += P
        if cow:
            self.cow_copies += n
        return n

    def overwrite_run(
        self, ino: int, start: int, data: bytes, offset: int, cow: bool
    ) -> int:
        """Overwrite the consecutive cached pages ``start``.. with the
        whole-page writes ``data[offset:]`` holds; returns how many pages
        it took (0 when page ``start`` is not cached).

        Page for page this is a ``lookup`` hit, a ``mark_page_dirty`` and
        a whole-page store — the LRU move, the stamp, the hit, the dirty
        index and the CoW duplicate — but a page's new image is its
        slice of ``data`` (or the shared same-filled one), as in
        :meth:`install_dirty_run`, not a private copy stored over.  The
        run stops at the first page that is not cached.
        """
        space = self._spaces.get(ino)
        if space is None:
            return 0
        P = self.page_size
        present = space.pages
        dirty_index = space.dirty
        lru = self._lru
        pos = self._pos
        clean = self._clean
        ctr = self._ctr
        copies = 0
        index = start
        end = start + (len(data) - offset) // P
        while index < end:
            page = present.get(index)
            if page is None:
                break
            key = page._key
            lru.move_to_end(key)
            pos[key] = ctr
            ctr += 1
            if not page.dirty:
                page.dirty = True
                dirty_index[index] = page
                clean.pop(key, None)
            if cow and page.original is None:
                page.original = bytes(page.data)
                copies += 1
            page.data = same_filled_at(data, offset, P) or bytes(
                data[offset : offset + P]
            )
            offset += P
            index += 1
        n = index - start
        self._ctr = ctr
        self.hits += n
        self.cow_copies += copies
        return n

    def mark_dirty(self, ino: int, index: int, cow: bool) -> None:
        space = self._spaces.get(ino)
        page = space.pages.get(index) if space is not None else None
        if page is None:
            raise KeyError(f"page ({ino}, {index}) not cached")
        self.mark_page_dirty(page, cow)

    def mark_page_dirty(self, page: CachedPage, cow: bool) -> None:
        """Like :meth:`mark_dirty` when the caller already holds the page
        (skips the two-level index lookup on the buffered-write path).
        ``page`` must be the one this cache holds under its key.

        The first store into a page takes its one private copy here; the
        duplicate is the image it was copied from."""
        data = page.data
        if cow and page.original is None:
            page.original = bytes(data)
            self.cow_copies += 1
        if type(data) is bytes:
            page.data = bytearray(data)
        if not page.dirty:
            page.dirty = True
            key = page._key
            self._spaces[key[0]].dirty[key[1]] = page
            self._clean.pop(key, None)

    def _make_room(self, n: int, writeback: WritebackFn) -> None:
        """Evict until ``n`` more pages fit, LRU clean-or-stale pages
        first; the dirty victims go to ``writeback`` as one ordered run.

        The victims are those ``n`` successive single-page calls would
        pick, as long as the caller dirties each page it then installs
        (the write path): such pages are neither clean candidates nor,
        while a pre-existing entry remains, at the LRU front.
        """
        lru = self._lru
        n_evict = len(lru) + n - self.capacity_pages
        if n_evict <= 0:
            return
        stale = self._stale_keys
        pos = self._pos
        clean = self._clean
        late = self._late
        late_keys = self._late_keys
        spaces = self._spaces
        dirty: List[Tuple[int, int, CachedPage]] = []
        for _ in range(n_evict):
            head = next(iter(clean), None)
            # (Past every stamp when ``_clean`` is empty.)
            head_pos = self._ctr if head is None else pos[head]
            victim = None
            while late and late[0][0] <= head_pos:
                stamp, key = late[0]
                live = pos[key]
                if key in clean or (lru[key].dirty and key not in stale):
                    heappop(late)  # filed in _clean, or dirtied since
                    late_keys.discard(key)
                elif live != stamp:
                    heapreplace(late, (live, key))  # hit since filed
                else:
                    heappop(late)
                    late_keys.discard(key)
                    victim = key
                    break
            if victim is None:
                if head is None:
                    victim = next(iter(lru))  # every cached page is dirty
                else:
                    victim = head
                    del clean[head]
            page = lru.pop(victim)
            del pos[victim]
            ino, index = victim
            if victim in stale:
                stale.discard(victim)
            else:
                space = spaces[ino]
                present = space.pages
                del present[index]
                if page.dirty:
                    dirty.append((ino, index, page))
                    del space.dirty[index]
                if not present:  # its last page: free the tables
                    present.clear()
                    space.dirty.clear()
        if dirty:
            writeback(dirty)

    # ------------------------------------------------------------------ #

    def dirty_pages(self, ino: int) -> List[Tuple[int, CachedPage]]:
        space = self._spaces.get(ino)
        if space is None:
            return []
        return space.dirty_pages()

    def all_dirty(self) -> List[Tuple[int, int, CachedPage]]:
        out = []
        for ino, space in self._spaces.items():
            for index, page in space.dirty_pages():
                out.append((ino, index, page))
        return out

    def drop_inode(self, ino: int) -> None:
        space = self._spaces.pop(ino, None)
        if space is None:
            return
        pos = self._pos
        clean = self._clean
        late_keys = self._late_keys
        n_late = len(late_keys)
        for index in space.pages:
            key = (ino, index)
            if self._lru.pop(key, None) is not None:
                del pos[key]
                clean.pop(key, None)
                late_keys.discard(key)
        if len(late_keys) != n_late:
            # The heap holds entries for keys that hold an LRU slot and
            # for no others: it cannot outgrow the cache.
            self._late = [entry for entry in self._late
                          if entry[1] in late_keys]
            heapify(self._late)

    def drop_all(self) -> None:
        """Crash: volatile host memory is lost."""
        self._spaces.clear()
        self._lru.clear()
        self._stale_keys.clear()
        self._pos.clear()
        self._clean.clear()
        self._late.clear()
        self._late_keys.clear()

    # ------------------------------------------------------------------ #

    @property
    def cached_pages(self) -> int:
        return len(self._lru)

    def duplicate_pages(self) -> int:
        """Pages currently holding a CoW duplicate (paper: ~16 % of the
        cache on average)."""
        return sum(
            1
            for space in self._spaces.values()
            for page in space.pages.values()
            if page.original is not None
        )
