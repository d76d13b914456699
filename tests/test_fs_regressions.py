"""Step sequences that once failed, replayed on every stack.

Each sequence is a list of :meth:`Refinement.step` ops, including the
machine's ``("remount", how)`` and ``("crash",)``; the visible tree must
equal the oracle's after every step, and a crash must pass
``OracleFS.check``.  A comment names the stack each one caught.
"""

from __future__ import annotations

import pytest

from tests.conftest import ALL_FS_AND_VARIANTS
from tests.test_fs_refinement import _machine


#: step sequences each once failed on some stack; every stack replays all
REGRESSIONS = {
    # ExtFS: a block freed before its trim went to a new file's hole page
    # and came back with the old file's bytes
    "extfs-block-reused-before-trim": [
        ("mkdir", "/db"), ("create", "/db/f1"),
        ("write", "/db/f1", 3386, b"C" * 1534), ("mkdir", "/da"),
        ("unlink", "/db/f1"), ("mkdir", "/da/sub"),
        ("create", "/da/sub/f0"),
        ("write", "/da/sub/f0", 447, b"\xd3" * 1715), ("remount", "sync"),
        ("rename", "/da/sub/f0", "/f1"), ("create", "/da/sub/f1"),
        ("unlink", "/f1"), ("write", "/da/sub/f1", 3236, b"\x9b" * 1473),
        ("create", "/f0"), ("rename", "/f0", "/da/sub/f0"),
        ("write", "/da/sub/f0", 5716, b"\xed" * 1557),
    ],
    # NOVA: mount freed a page one log superseded that another inode's
    # log had taken since; ByteFS: recovery flushed an older bitmap
    # group over a newer one
    "page-superseded-then-reused": [
        ("mkdir", "/db"), ("create", "/f0"),
        ("write", "/f0", 3431, b"\xb6" * 1457),
        ("write", "/f0", 1398, b"\xe4" * 781), ("create", "/db/f0"),
        ("remount", "sync"), ("create", "/db/f1"),
        ("write", "/db/f1", 5869, b"A" * 2445),
        ("write", "/db/f1", 5802, b"t" * 2244), ("mkdir", "/da"),
        ("write", "/db/f1", 3842, b"\xb0" * 2214),
        ("rename", "/db/f1", "/da/f1"),
    ],
    # NOVA: replay mapped the pages a truncate had freed, and an unlink
    # then freed them again from under a directory's log
    "nova-truncate-then-crash": [
        ("mkdir", "/da"), ("create", "/f0"),
        ("write", "/f0", 16239, b"e" * 216), ("trunc", "/f0", 1291),
        ("create", "/da/f0"), ("sync",), ("crash",), ("mkdir", "/db"),
        ("unlink", "/da/f0"), ("mkdir", "/da/sub"), ("unlink", "/f0"),
        ("sync",), ("crash",),
    ],
    # NOVA: mount listed a page past its allocation cursor as free, so
    # one write took the same page twice
    "nova-free-page-past-cursor": [
        ("create", "/f0"), ("write", "/f0", 16272, b"N" * 1181),
        ("create", "/f1"), ("write", "/f1", 8749, b"u" * 4958),
        ("write", "/f0", 17853, b"\xb7" * 716), ("trunc", "/f1", 13604),
        ("trunc", "/f0", 11456), ("mkdir", "/da"), ("sync",), ("crash",),
        ("create", "/da/f1"), ("write", "/f1", 22425, b"O" * 7599),
    ],
    # NOVA: a setattr entry shorter than its header said hid the entries
    # after it from replay
    "nova-write-after-truncate": [
        ("create", "/f1"), ("write", "/f1", 28290, b"\x10" * 2168),
        ("trunc", "/f1", 37), ("write", "/f1", 13115, b"R" * 3122),
        ("remount", "sync"),
    ],
    # ByteFS: a namespace transaction's bitmap image carried blocks an
    # uncommitted truncate had freed; recovered free, they went to a
    # new file while the truncated file came back holding them
    "bitmap-image-with-another-transactions-free": [
        ("mkdir", "/db"), ("create", "/f0"),
        ("write", "/f0", 26601, b"}" * 798), ("remount", "mount"),
        ("trunc", "/f0", 187), ("create", "/db/f1"), ("crash",),
        ("create", "/db/f1"), ("write", "/db/f1", 30000, b"\xef" * 169),
    ],
    # F2FS: fsync skipped a clean node last written without the fsync
    # mark, so roll-forward brought back the checkpoint's size
    "f2fs-fsync-after-truncate": [
        ("create", "/f0"), ("sync",), ("trunc", "/f0", 8402),
        ("fsync", "/f0"), ("unlink", "/f0"), ("crash",),
    ],
    # F2FS: roll-forward of a node fsynced after a rename added the new
    # name and kept the checkpoint's old one
    "f2fs-fsync-after-rename": [
        ("mkdir", "/db"), ("remount", "mount"), ("create", "/f1"),
        ("fdatasync", "/f1"), ("crash",), ("rename", "/f1", "/db/f1"),
        ("fsync", "/db/f1"),
        ("crash",),
    ],
    # F2FS: roll-forward gave a name back to the unlinked file fsynced
    # under it before, not to the new file fsynced under it since
    "f2fs-fsync-of-a-recreated-name": [
        ("create", "/f0"), ("write", "/f0", 2, b"\x02"),
        ("fdatasync", "/f0"), ("unlink", "/f0"), ("create", "/f0"),
        ("fdatasync", "/f0"), ("crash",),
    ],
    # ByteFS-Dual: a crash kept a shrink's size but not its zeroed tail,
    # so an extension brought the old bytes back
    "shrink-then-crash-then-extend": [
        ("create", "/f1"), ("write", "/f1", 511, b'"' * 1065),
        ("remount", "sync"), ("trunc", "/f1", 18), ("crash",),
        ("write", "/f1", 3278, b"R" * 781),
        ("write", "/f1", 5000, b"S" * 781), ("remount", "unmount"),
    ],
    # ByteFS: a fresh mount numbered transactions from 1 while the
    # firmware still listed the last mount's TxIDs as committed, so an
    # uncommitted truncate survived a crash
    "txid-reused-after-fresh-mount": [
        ("create", "/f0"), ("write", "/f0", 243, b"\xbc" * 840),
        ("remount", "mount"), ("trunc", "/f0", 187), ("crash",),
        ("write", "/f0", 4382, b"\x10" * 4096), ("remount", "unmount"),
    ],
    # ByteFS-Dual: a crash kept a free but not its deferred trim
    "unlink-then-crash-then-reuse": [
        ("create", "/f1"), ("write", "/f1", 511, b'"' * 1065),
        ("remount", "sync"), ("unlink", "/f1"), ("create", "/f0"),
        ("crash",), ("create", "/f0"),
        ("write", "/f0", 5084, b"\xb1" * 1496),
    ],
    "rename-onto-itself": [
        ("create", "/f0"), ("write", "/f0", 0, b"x" * 100),
        ("rename", "/f0", "/f0"), ("crash",),
    ],
}


@pytest.mark.parametrize("fs_name", ALL_FS_AND_VARIANTS)
@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_regression(case, fs_name):
    machine = _machine(fs_name)()
    for op in REGRESSIONS[case]:
        machine.step(op)
        machine.tree_matches()
