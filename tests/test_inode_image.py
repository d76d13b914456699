"""The itable image always equals the inodes it caches (ext4, bytefs).

``ExtFS._persist_inode(lower=…, upper=…)`` encodes and patches into the
in-memory inode-table image only the halves it persists.  That is sound
because every change to an upper-half field (``extents``,
``extent_block``) is followed by an ``upper=True`` persist before
anything reads the image (``_snapshot_block`` hands it to jbd2; a later
mount decodes what reached the device).  This module names that
invariant: after every syscall of an op stream — writes that fragment a
file past its three inline extents into the spill block, truncate,
unlink, rename, directory growth — each cached inode's 128 B in the
image equal ``inode.encode()``.  The ext4 goldens and ``oltp_gc``'s
document hash pin the journal images end to end; a mutant that skips
the upper-half patch in ``_persist_extents`` shows what this test adds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs.errors import FSError
from repro.fs.layout import INLINE_EXTENTS, INODE_SIZE
from repro.fs.vfs import O_CREAT, O_RDWR
from tests.conftest import make_stack

EXT_FAMILY = ["ext4", "bytefs"]
PAGE = 4096

FILES = [f"/f{i}" for i in range(3)] + [f"/d/f{i}" for i in range(2)]
#: 208 B dentries: twenty of them outgrow one directory block
LONG = [f"/d/{'n' * 190}{i:02d}" for i in range(24)]

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from(FILES),
                  st.integers(0, 10), st.integers(1, 3)),
        st.tuples(st.just("trunc"), st.sampled_from(FILES),
                  st.integers(0, 8 * PAGE)),
        st.tuples(st.just("unlink"), st.sampled_from(FILES + LONG)),
        st.tuples(st.just("rename"), st.sampled_from(FILES),
                  st.sampled_from(FILES)).filter(lambda op: op[1] != op[2]),
        st.tuples(st.just("touch"), st.sampled_from(LONG)),
        st.tuples(st.just("fsync"), st.sampled_from(FILES)),
        st.just(("sync",)),
    ),
    min_size=1,
    max_size=40,
)


def stale_inode(fs) -> Optional[int]:
    """A cached inode whose bytes in the itable image are not its
    encoding, or ``None`` when the image is exact."""
    for ino, inode in sorted(fs._inodes.items()):
        raw = fs._itable.get(fs._inode_blkno(ino))
        off = fs._inode_offset(ino)
        if raw is None or bytes(raw[off : off + INODE_SIZE]) != inode.encode():
            return ino
    return None


def first_stale(fs, ops: List[Tuple]) -> Optional[str]:
    """Run ``ops`` checking the image after every syscall; the first
    violation as text, or ``None``."""

    def call(name: str, *args):
        try:
            return getattr(fs, name)(*args)
        finally:
            ino = stale_inode(fs)
            if ino is not None:
                raise AssertionError(f"inode {ino} stale after {name}{args[:2]}")

    try:
        if not fs.exists("/d"):
            call("mkdir", "/d")
        for op in ops:
            kind = op[0]
            try:
                if kind == "write":
                    _, path, page, npages = op
                    fd = call("open", path, O_CREAT | O_RDWR)
                    call("pwrite", fd, page * PAGE, b"d" * (npages * PAGE))
                    call("close", fd)
                elif kind == "trunc":
                    fd = call("open", op[1], O_RDWR)
                    call("ftruncate", fd, op[2])
                    call("close", fd)
                elif kind == "touch":
                    call("close", call("open", op[1], O_CREAT | O_RDWR))
                elif kind == "fsync":
                    fd = call("open", op[1], O_RDWR)
                    call("fsync", fd)
                    call("close", fd)
                else:
                    call(*op)
            except FSError:
                pass  # absent file, ...: the image was still checked
    except AssertionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("fs_name", EXT_FAMILY)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=ops_strategy)
def test_itable_image_equals_cached_inodes(fs_name, ops):
    _clock, _stats, _dev, fs = make_stack(fs_name)
    assert first_stale(fs, ops) is None


#: Interleaved appends fragment /f0 and /f1 past the inline extents; the
#: long names grow /d to a second block; then shrink, move and remove.
SPILL_OPS: List[Tuple] = (
    [("write", f"/f{i % 2}", i // 2, 1) for i in range(12)]
    + [("touch", name) for name in LONG]
    + [("fsync", "/f0"), ("trunc", "/f0", PAGE + 1), ("rename", "/f1", "/d/f0"),
       ("unlink", "/f0"), ("unlink", LONG[3]), ("sync",)]
)


@pytest.mark.parametrize("fs_name", EXT_FAMILY)
def test_spill_block_and_directory_growth_keep_the_image_exact(fs_name):
    _clock, _stats, _dev, fs = make_stack(fs_name)
    assert first_stale(fs, SPILL_OPS[:12]) is None
    f0 = fs._get_inode(fs.stat("/f0").ino)
    assert len(f0.extents) > INLINE_EXTENTS and f0.extent_block
    assert first_stale(fs, SPILL_OPS[12:]) is None
    assert fs.stat("/d").size > PAGE


@pytest.mark.parametrize("fs_name", EXT_FAMILY)
def test_skipped_upper_half_patch_is_caught(fs_name):
    """Mutant: ``_persist_extents`` changes the extent list and leaves
    the image's upper half alone.  (When ``_persist_inode`` re-encoded
    both halves on every call, the next size update hid this.)"""
    _clock, _stats, _dev, fs = make_stack(fs_name)
    cls = type(fs)

    class SkipsUpperPatch(cls):
        def _persist_extents(self, inode):
            self._persist_inode = lambda *args, **kwargs: None
            try:
                super()._persist_extents(inode)
            finally:
                del self._persist_inode

    fs.__class__ = SkipsUpperPatch
    assert first_stale(fs, SPILL_OPS) is not None
