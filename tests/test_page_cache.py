"""Unit and property tests for the host page cache with CoW (§4.6)."""

from hypothesis import given, settings, strategies as st

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
