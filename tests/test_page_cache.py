"""Unit and property tests for the host page cache with CoW (§4.6)."""

from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
    run_state_machine_as_test,
)

from repro.host import page_cache as page_cache_module
from repro.host.page_cache import CachedPage, PageCache


def test_cached_page_pads_short_data():
    page = CachedPage(b"abc", 4096)
    assert len(page.data) == 4096


def test_dirty_chunks_without_cow_is_whole_page():
    page = CachedPage(bytes(4096), 4096)
    page.mark_dirty(cow=False)
    assert page.dirty_chunks() == [(0, 4096)]
    assert page.modified_ratio() == 1.0


def test_dirty_chunks_with_cow_finds_modified_lines():
    page = CachedPage(bytes(4096), 4096)
    page.mark_dirty(cow=True)
    page.data[100] = 1       # line 1
    page.data[4000] = 2      # line 62
    chunks = page.dirty_chunks()
    assert (64, 64) in chunks
    assert (3968, 64) in chunks
    assert page.modified_ratio() == 2 / 64


def test_modified_ratio_drives_interface_policy():
    page = CachedPage(bytes(4096), 4096)
    page.mark_dirty(cow=True)
    for off in range(0, 512, 64):
        page.data[off] = 9
    assert page.modified_ratio() == 8 / 64  # exactly 1/8: block interface
    page2 = CachedPage(bytes(4096), 4096)
    page2.mark_dirty(cow=True)
    page2.data[0] = 9
    assert page2.modified_ratio() < 1 / 8


def test_adjacent_dirty_lines_coalesce_into_runs():
    page = CachedPage(bytes(4096), 4096)
    page.mark_dirty(cow=True)
    page.data[0:256] = b"\x01" * 256
    assert page.dirty_chunks() == [(0, 256)]


def test_clean_drops_duplicate():
    page = CachedPage(bytes(4096), 4096)
    page.mark_dirty(cow=True)
    assert page.original is not None
    page.clean()
    assert page.original is None
    assert not page.dirty


def test_cache_lookup_hit_miss_counters():
    pc = PageCache(4, 4096)
    assert pc.lookup(1, 0) is None
    pc.install(1, 0, b"x", lambda *a: None)
    assert pc.lookup(1, 0) is not None
    assert pc.hits == 1
    assert pc.misses == 1


def test_cache_evicts_clean_first():
    pc = PageCache(2, 4096)
    written = []

    def wb(batch):
        for ino, idx, page in batch:
            written.append((ino, idx))
            page.clean()

    pc.install(1, 0, b"a", wb)
    pc.install(1, 1, b"b", wb)
    pc.mark_dirty(1, 1, cow=False)
    pc.install(1, 2, b"c", wb)  # must evict the clean page 0
    assert written == []
    assert pc.lookup(1, 0) is None
    assert pc.lookup(1, 1) is not None


def test_cache_writeback_on_dirty_eviction():
    pc = PageCache(2, 4096)
    written = []

    def wb(batch):
        for ino, idx, page in batch:
            written.append((ino, idx))
            page.clean()

    pc.install(1, 0, b"a", wb)
    pc.mark_dirty(1, 0, cow=False)
    pc.install(1, 1, b"b", wb)
    pc.mark_dirty(1, 1, cow=False)
    pc.install(1, 2, b"c", wb)
    assert len(written) == 1


def test_duplicate_page_accounting():
    pc = PageCache(8, 4096)
    pc.install(1, 0, b"a", lambda *a: None)
    pc.install(1, 1, b"b", lambda *a: None)
    pc.mark_dirty(1, 0, cow=True)
    assert pc.duplicate_pages() == 1
    assert pc.cow_copies == 1


def test_drop_inode_and_drop_all():
    pc = PageCache(8, 4096)
    pc.install(1, 0, b"a", lambda *a: None)
    pc.install(2, 0, b"b", lambda *a: None)
    pc.drop_inode(1)
    assert pc.lookup(1, 0) is None
    assert pc.lookup(2, 0) is not None
    pc.drop_all()
    assert pc.cached_pages == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4095), st.binary(min_size=1, max_size=64)),
        max_size=20,
    )
)
def test_xor_diff_exactly_covers_modifications(writes):
    """Property: the dirty-chunk runs cover every modified byte, and the
    merge of (original + dirty chunks) reproduces the current page."""
    page = CachedPage(bytes(4096), 4096)
    page.mark_dirty(cow=True)
    for off, data in writes:
        n = min(len(data), 4096 - off)
        page.data[off : off + n] = data[:n]
    rebuilt = bytearray(page.original)
    for off, length in page.dirty_chunks():
        rebuilt[off : off + length] = page.data[off : off + length]
    assert bytes(rebuilt) == bytes(page.data)


# ---------------------------------------------------------------------- #
# the eviction index: bounded by the cached keys, exact victims
# ---------------------------------------------------------------------- #

def _clean_all(batch):
    for _ino, _index, page in batch:
        page.clean()


def index_is_bounded(pc):
    """One heap entry per key at most, and only keys that hold a slot."""
    late = [key for _stamp, key in pc._late]
    return len(late) == len(set(late)) and \
        set(late) == pc._late_keys <= set(pc._lru) and \
        set(pc._clean) <= set(pc._lru)


def test_index_is_bounded_by_the_cached_keys():
    """No more keys than the cache, whatever the history: hits push
    nothing, a page that cycles dirty -> clean is filed once, and
    dropped keys take their entries with them."""
    pc = PageCache(1024, 4096)
    for index in range(512):
        pc.install(1 + index % 4, index, b"x", _clean_all)
    for i in range(200_000):
        pc.lookup(1 + i % 4, i % 512)
    assert pc.hits == 200_000
    assert index_is_bounded(pc) and pc.cached_pages == 512
    assert len(pc._clean) == 512 and pc._late == []

    page = pc.lookup(1, 0)
    for _ in range(1000):
        pc.mark_page_dirty(page, cow=True)
        page.clean()
    assert index_is_bounded(pc)
    assert list(pc._clean)[-1] == (1, 0)  # filed once, at the MRU end

    # write-back cleans inode 3's pages behind the MRU end: all but the
    # last one it dirtied are filed in the heap
    for index in range(2, 512, 4):
        pc.mark_page_dirty(pc.lookup(3, index), cow=False)
    for _index, page in pc.dirty_pages(3):
        page.clean()
    assert len(pc._late) == 127 and index_is_bounded(pc)

    pc.drop_inode(3)
    assert pc.cached_pages == 384
    assert index_is_bounded(pc) and pc._late == []
    pc.drop_all()
    assert pc._late == [] and not pc._late_keys and not pc._clean

    # ... and under eviction pressure, with hits between the evictions
    pc = PageCache(64, 4096)
    for i in range(20_000):
        if pc.lookup(1, i * 7 % 96) is None:
            pc.install(1, i * 7 % 96, b"x", _clean_all)
        pc.lookup(1, i % 5)
        assert index_is_bounded(pc) and pc.cached_pages <= 64


def _off_the_fast_path(*_args):
    raise AssertionError("a clean-victim fill left install's own frame")


def test_clean_victim_fills_and_hits_touch_no_heap():
    """A read fill whose victim is ``_clean``'s head runs in ``install``'s
    own frame: no heap operation, no room-making, no page constructor."""
    pc = PageCache(64, 4096)
    for index in range(64):
        pc.install(1, index, b"x", _clean_all)
    with ExitStack() as patches:
        for name in ("heappush", "heappop", "heapreplace", "heapify"):
            patches.enter_context(
                mock.patch.object(page_cache_module, name, _off_the_fast_path)
            )
        for name in ("_make_room", "_file_candidate", "space"):
            patches.enter_context(
                mock.patch.object(PageCache, name, _off_the_fast_path)
            )
        patches.enter_context(
            mock.patch.object(CachedPage, "__init__", _off_the_fast_path)
        )
        for i in range(20_000):
            if pc.lookup(1, i * 7 % 96) is None:
                pc.install(1, i * 7 % 96, b"x", _clean_all)
            pc.lookup(1, i % 5)
    assert pc.misses > 5_000 and pc.cached_pages == 64
    assert pc._late == [] and index_is_bounded(pc)


def test_page_cleaned_behind_the_lru_end_keeps_one_late_entry():
    pc = PageCache(8, 4096)
    page = pc.install(1, 0, b"x", _clean_all)
    pc.install(1, 1, b"y", _clean_all)  # page 0 is no longer the MRU
    for _ in range(1000):
        pc.mark_page_dirty(page, cow=True)
        page.clean()
    assert pc._late == [(pc._pos[(1, 0)], (1, 0))]
    assert list(pc._clean) == [(1, 1)]


class VictimsMatchTheDefinition(RuleBasedStateMachine):
    """The class docstring's victim — the first clean-or-stale key in
    LRU order, else the LRU head — as a linear scan, against the index,
    after every step of a random history."""

    CAPACITY = 6
    cache_cls = PageCache

    def __init__(self):
        super().__init__()
        self.pc = self.cache_cls(self.CAPACITY, 4096)
        self.written = []        # victims handed to writeback, in order
        # the reference: key -> "clean" | "dirty" | "stale", in LRU order
        self.model = {}
        self.expected = []

    def writeback(self, batch):
        for ino, index, page in batch:
            self.written.append((ino, index))
            page.clean()

    def model_touch(self, key):
        self.model[key] = self.model.pop(key)

    def model_make_room(self, n):
        while len(self.model) + n > self.CAPACITY:
            victim = next(
                (k for k, state in self.model.items() if state != "dirty"),
                next(iter(self.model)),
            )
            if self.model.pop(victim) == "dirty":
                self.expected.append(victim)

    keys = st.tuples(st.integers(1, 3), st.integers(0, 5))

    @rule(key=keys)
    def lookup(self, key):
        page = self.pc.lookup(*key)
        state = self.model.get(key)
        assert (page is not None) == (state in ("clean", "dirty"))
        if page is not None:
            self.model_touch(key)

    @rule(key=keys)
    def install(self, key):
        if self.pc.lookup(*key) is not None:
            self.model_touch(key)
            return
        self.model_make_room(1)
        self.pc.install(*key, b"x", self.writeback)
        # (re-installing over a stale key keeps its LRU position)
        self.model[key] = "clean"

    @rule(ino=st.integers(1, 3), start=st.integers(0, 5), n=st.integers(1, 4))
    def install_dirty_run(self, ino, start, n):
        took = self.pc.install_dirty_run(
            ino, start, bytes(n * 4096), 0, True, self.writeback
        )
        assert took == next(
            (i for i in range(n) if (ino, start + i) in self.model), n
        )
        self.model_make_room(took)
        for index in range(start, start + took):
            self.model[(ino, index)] = "dirty"

    @rule(key=keys, cow=st.booleans())
    def mark_page_dirty(self, key, cow):
        if self.model.get(key) in ("clean", "dirty"):
            self.pc.mark_page_dirty(self.pc.space(key[0]).get(key[1]), cow)
            self.model[key] = "dirty"

    @rule(key=keys)
    def clean(self, key):
        if self.model.get(key) == "dirty":
            self.pc.space(key[0]).get(key[1]).clean()
            self.model[key] = "clean"

    @rule(key=keys)
    def drop(self, key):
        self.pc.space(key[0]).drop(key[1])
        if key in self.model:
            self.model[key] = "stale"

    @rule(ino=st.integers(1, 3))
    def drop_inode(self, ino):
        self.pc.drop_inode(ino)
        # (a stale key outlives its inode: it keeps its LRU slot until it
        # is the victim)
        for key, state in list(self.model.items()):
            if key[0] == ino and state != "stale":
                del self.model[key]

    @invariant()
    def same_victims_same_survivors(self):
        pc = self.pc
        assert self.written == self.expected
        assert list(pc._lru) == list(self.model)
        assert pc._stale_keys == {
            k for k, state in self.model.items() if state == "stale"
        }
        assert {
            (ino, index) for ino, space in pc._spaces.items()
            for index in space.dirty
        } == {k for k, state in self.model.items() if state == "dirty"}

    @invariant()
    def index_is_exact(self):
        pc = self.pc
        # stamps rise along the LRU; _clean is in LRU order; every
        # clean-or-stale key is filed, at most once in the heap, and no
        # entry claims a rank its key has not reached
        assert sorted(pc._pos[k] for k in pc._lru) == \
            [pc._pos[k] for k in pc._lru]
        assert list(pc._clean) == [k for k in pc._lru if k in pc._clean]
        assert index_is_bounded(pc)
        assert {
            k for k, state in self.model.items() if state != "dirty"
        } <= set(pc._clean) | pc._late_keys
        assert all(self.model[k] != "dirty" for k in pc._clean)
        assert all(stamp <= pc._pos[key] for stamp, key in pc._late)


VictimsMatchTheDefinition.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
test_victims_match_the_linear_scan = VictimsMatchTheDefinition.TestCase


class LateBlindCache(PageCache):
    """Mutant: the victim is ``_clean``'s head, else the LRU head — a
    key filed in ``_late`` is never picked (the heap reads as empty)."""

    @property
    def _late(self):
        return []

    @_late.setter
    def _late(self, _entries):
        pass


def test_late_blind_mutant_fails_the_machine():
    class Machine(VictimsMatchTheDefinition):
        cache_cls = LateBlindCache

        def index_is_exact(self):
            """(Not an invariant here: the victims alone must tell.)"""

    with pytest.raises(AssertionError):
        run_state_machine_as_test(Machine, settings=settings(
            max_examples=150, stateful_step_count=60, deadline=None,
            derandomize=True, database=None, report_multiple_bugs=False,
            phases=[Phase.generate],  # the first failure will do
        ))
