"""The §4.6 diff probe ≡ the line-by-line reference, exact at the threshold.

``dirty_line_indices`` answers the write-back policy question with as
few comparisons as the page allows (one for an untouched page, ``limit``
for a rewritten one, a C-speed split otherwise).  These tests hold it to
the three-line definition of a dirty line kept here as the reference —
(a) page by page for every shape of modification and every ``limit``
that matters, (b) at the file-system level, where the probe's ``None``
becomes the block interface, for thresholds on both sides of every
boundary — and (c) plant three mutants in the shipped function, each of
which (a)'s cases catch.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.extfs import ExtFSConfig
from repro.host import page_cache
from repro.host.page_cache import (
    CACHELINE,
    CachedPage,
    dirty_line_indices,
    line_runs,
)
from repro.stats.traffic import StructKind
from repro.trace import tracer as trace
from repro.trace.probes import bound
from repro.trace.tracer import Tracer
from tests.test_writeback_runs import LINES, P, build, dirty_a_file


def reference_lines(cur, old):
    """The definition: line ``i`` is dirty when its 64 bytes differ."""
    n = len(cur) // CACHELINE
    return [i for i in range(n)
            if cur[i * CACHELINE:(i + 1) * CACHELINE]
            != old[i * CACHELINE:(i + 1) * CACHELINE]]


def limits(n):
    """Never / first dirty line / the default R = 1/8 on a 4 KB page /
    every line / a limit no page reaches."""
    return (0, 1, 8, n, n + 1)


def mismatch(diff, cur, old):
    """The first ``limit`` at which ``diff`` departs from the reference:
    the same indices, ``None`` exactly when ``limit`` or more are dirty."""
    ref = reference_lines(cur, old)
    for limit in limits(len(cur) // CACHELINE):
        want = None if len(ref) >= limit else ref
        got = diff(cur, old, limit)
        if got != want:
            return f"limit {limit}: {got} != {want} ({len(ref)} dirty)"
    return None


# ---------------------------------------------------------------------- #
# (a) page level
# ---------------------------------------------------------------------- #

def _duplicate(n, seed):
    """A zero duplicate (``install_dirty_run``'s) or a non-zero one."""
    if seed is None:
        return bytes(n * CACHELINE)
    return random.Random(seed).randbytes(n * CACHELINE)


def _flip(cur, start, stop):
    """Change every byte of ``cur[start:stop]``."""
    cur[start:stop] = bytes(b ^ 0xA5 for b in cur[start:stop])


@st.composite
def pages(draw):
    """(current page, duplicate) pairs of 512 B – 16 KB."""
    n = draw(st.sampled_from([8, 16, 64, 64, 128, 256]))
    old = _duplicate(n, draw(st.one_of(st.none(), st.integers(0, 99))))
    cur = bytearray(old)
    shape = draw(st.sampled_from([
        "unchanged", "rewritten", "contiguous", "scattered", "writes",
        "last byte",
    ]))
    if shape == "rewritten":
        _flip(cur, 0, len(cur))
    elif shape == "contiguous":
        first = draw(st.integers(0, n - 2))
        count = draw(st.integers(1, n - 1 - first))
        _flip(cur, first * CACHELINE, (first + count) * CACHELINE)
    elif shape == "scattered":
        for line in draw(st.sets(st.integers(0, n - 1),
                                 min_size=1, max_size=n - 1)):
            # one byte somewhere in the line is enough
            at = line * CACHELINE + draw(st.integers(0, CACHELINE - 1))
            _flip(cur, at, at + 1)
    elif shape == "writes":
        # byte-granular writes that straddle line boundaries
        for _ in range(draw(st.integers(1, 6))):
            start = draw(st.integers(0, len(cur) - 1))
            _flip(cur, start, start + draw(st.integers(1, 3 * CACHELINE)))
    elif shape == "last byte":
        _flip(cur, len(cur) - 1, len(cur))
    return cur, old


@settings(max_examples=300, deadline=None)
@given(page=pages())
def test_probe_equals_reference(page):
    assert mismatch(dirty_line_indices, *page) is None


def _page(dirty, n=64, seed=5):
    """A page whose lines ``dirty`` differ from a non-zero duplicate in
    their last byte only."""
    old = _duplicate(n, seed)
    cur = bytearray(old)
    for line in dirty:
        _flip(cur, (line + 1) * CACHELINE - 1, (line + 1) * CACHELINE)
    return cur, old


#: the boundaries, spelled out: around limit 8, around every line, and
#: where only the leading or only the trailing lines are dirty
BOUNDARY_PAGES = {
    "clean": _page([]),
    "one": _page([37]),
    "last line only": _page([63]),
    "seven scattered": _page([1, 9, 17, 30, 41, 50, 63]),
    "seven leading": _page(range(7)),
    "eight leading": _page(range(8)),
    "eight, line 3 clean": _page([0, 1, 2, 4, 5, 6, 7, 8]),
    "nine trailing": _page(range(55, 64)),
    "all but the first": _page(range(1, 64)),
    "all but the last": _page(range(63)),
    "all": _page(range(64)),
    "all of 512 B": _page(range(8), n=8),
    "all, zero duplicate": _page(range(64), seed=None),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_PAGES))
def test_probe_at_the_boundaries(name):
    assert mismatch(dirty_line_indices, *BOUNDARY_PAGES[name]) is None


def test_cached_page_reads_the_same_diff():
    cur, old = BOUNDARY_PAGES["seven scattered"]
    page = CachedPage(bytes(old), len(old))
    page.mark_dirty(cow=True)
    page.data[:] = cur
    assert page.modified_ratio() == 7 / 64
    assert page.dirty_chunks() == line_runs(reference_lines(cur, old))
    page.data[:] = old  # touched, then restored: a CoW page with R = 0
    assert page.modified_ratio() == 0.0 and page.dirty_chunks() == []


def test_a_partial_line_is_refused():
    with pytest.raises(struct.error):
        dirty_line_indices(bytearray(b"x" * 100), bytes(100), 8)


# ---------------------------------------------------------------------- #
# (b) file-system level: the interface each page leaves through
# ---------------------------------------------------------------------- #

#: dirty lines per page of the file under test: R = 0, 1/64, just under,
#: at and just over 1/8, and up to a whole page
COUNTS = [0, 1, 7, 8, 9, 32, 63, 64]


def _writeback(threshold):
    """Write back one file whose page ``i`` has ``COUNTS[i]`` dirty
    lines; returns (policy per page, DATA stores, counters, references
    of the same three)."""
    with bound():  # spans need the stack built and run inside
        _clock, stats, device, fs = build("bytefs")
    fs.cfg.byte_ratio_threshold = threshold
    rng = random.Random(len(COUNTS))
    _fd, ino, batch = dirty_a_file(
        fs, [set(rng.sample(range(LINES), count)) for count in COUNTS]
    )
    inode = fs._get_inode(ino)

    want_policy, want_stores = [], []
    for _ino, pidx, page in batch:
        ref = reference_lines(page.data, page.original)
        if len(ref) / LINES < threshold:
            want_policy.append("byte")
            base = fs._block_of(inode, pidx) * P
            want_stores += [
                (base + off, bytes(page.data[off:off + length]))
                for off, length in line_runs(ref)
            ]
        else:
            want_policy.append("block")

    stores = []
    store = device.store

    def recording_store(addr, data, kind, **kw):
        if kind is StructKind.DATA:
            stores.append((addr, bytes(data)))
        return store(addr, data, kind, **kw)

    device.store = recording_store
    before = dict(stats.counters)
    tracer = Tracer(fs.clock)
    with bound(), trace.activated(tracer):
        fs._writeback_pages(batch, fs._ino_tx.get(ino), True)
    policy = [
        span.attrs["policy"] for span in sorted(
            (s for s in tracer.spans if s.op == "writeback"),
            key=lambda s: s.attrs["pidx"],
        )
    ]
    counters = {
        name: stats.counters.get(name, 0) - before.get(name, 0)
        for name in ("bytefs_byte_writebacks", "block_writebacks")
    }
    want_counters = {
        "bytefs_byte_writebacks": want_policy.count("byte"),
        "block_writebacks": want_policy.count("block"),
    }
    return (policy, stores, counters), \
        (want_policy, want_stores, want_counters)


@pytest.mark.parametrize("threshold", [0, 1 / 64, 1 / 8, 1.0, 2.0])
def test_policy_and_chunks_equal_the_reference(threshold):
    got, want = _writeback(threshold)
    assert got == want


def test_seven_and_eight_lines_straddle_the_default():
    (policy, _stores, _counters), _want = _writeback(
        ExtFSConfig().byte_ratio_threshold
    )
    assert dict(zip(COUNTS, policy)) == {
        0: "byte", 1: "byte", 7: "byte",
        8: "block", 9: "block", 32: "block", 63: "block", 64: "block",
    }


# ---------------------------------------------------------------------- #
# (c) planted mutants, in the shipped function
# ---------------------------------------------------------------------- #

def _one_line_early(monkeypatch):
    """Gives up at ``limit - 1`` dirty lines."""
    return lambda cur, old, limit: dirty_line_indices(cur, old, limit - 1)


def _probe_any_for_all(monkeypatch):
    """The leading-line probe calls a page dense although one of its
    first ``limit`` lines is clean."""
    monkeypatch.setattr(page_cache, "all", any, raising=False)
    return dirty_line_indices


def _split_drops_the_last_line(monkeypatch):
    lines = page_cache._lines

    class Short:
        def __init__(self, n):
            self.unpack_from = lines(n).unpack_from
            self.unpack = lambda buf: lines(n).unpack(buf)[:-1]

    monkeypatch.setattr(page_cache, "_lines", Short)
    return dirty_line_indices


@pytest.mark.parametrize("plant", [
    _one_line_early, _probe_any_for_all, _split_drops_the_last_line,
], ids=lambda plant: plant.__name__.strip("_"))
def test_planted_mutant_is_caught(plant, monkeypatch):
    mutant = plant(monkeypatch)
    assert any(
        mismatch(mutant, *page) is not None
        for page in BOUNDARY_PAGES.values()
    )
