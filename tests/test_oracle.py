"""The durability oracle on its own, against hand-built recovered trees.

A tree equal to the oracle's visible view is what a file system that
lost nothing recovers, so it must pass :meth:`OracleFS.check` after any
op stream.  The named cases are trees an incarnation-blind oracle (one
keyed by path) convicted although a correct file system may recover
them.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import OracleFS
from repro.faults.sweep import apply_op
from tests.conftest import make_stack
from tests.test_fs_refinement import DIRS, FILES, _parent, read_tree


class _Stat:
    def __init__(self, size: int, ino: int, is_dir: bool) -> None:
        self.size, self.ino, self.is_dir = size, ino, is_dir


class Tree:
    """A recovered tree: just what ``OracleFS.check`` reads."""

    def __init__(self, files, dirs=()) -> None:
        self.files = dict(files)
        self.dirs = set(dirs) | {"/"}
        self.inos = {p: 2 + i for i, p in enumerate(sorted(self.files))}

    def exists(self, path):
        return path in self.files or path in self.dirs

    def stat(self, path):
        if path in self.dirs:
            return _Stat(0, 1, True)
        return _Stat(len(self.files[path]), self.inos[path], False)

    def open(self, path, flags=0):
        return path

    def pread(self, fd, offset, length):
        return self.files[fd][offset:offset + length]

    def close(self, fd):
        pass

    def listdir(self, path):
        pre = path.rstrip("/") + "/"
        return sorted(
            p[len(pre):] for p in [*self.files, *self.dirs]
            if p.startswith(pre) and "/" not in p[len(pre):] and p != pre
        )


def _oracle(ops) -> OracleFS:
    oracle = OracleFS()
    for op in ops:
        oracle.observe(op)
    return oracle


def _valid(oracle: OracleFS, op) -> bool:
    kind, files, dirs = op[0], oracle.files, oracle.dirs
    if kind == "mkdir":
        return op[1] not in dirs and _parent(op[1]) in dirs
    if kind == "create":
        return _parent(op[1]) in dirs
    if kind == "rename":
        return op[1] in files and _parent(op[2]) in dirs
    return kind == "sync" or op[1] in files


_path = st.sampled_from(FILES)
_op = st.one_of(
    st.tuples(st.just("mkdir"), st.sampled_from(DIRS)),
    st.tuples(st.just("create"), _path),
    st.tuples(st.just("write"), _path, st.integers(0, 6000),
              st.builds(lambda b, n: bytes([b]) * n,
                        st.integers(1, 255), st.integers(1, 2500))),
    st.tuples(st.just("trunc"), _path, st.integers(0, 9000)),
    st.tuples(st.sampled_from(["fsync", "fdatasync", "unlink"]), _path),
    st.tuples(st.just("rename"), _path, _path),
    st.tuples(st.just("sync")),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, min_size=10, max_size=40), in_flight=st.booleans())
def test_the_visible_view_always_passes(ops, in_flight):
    oracle = OracleFS()
    done = []
    for op in ops:
        if _valid(oracle, op):
            oracle.observe(op)
            done.append(op)
    if in_flight and done:
        # the last op was cut by the crash: the tree shows none of it
        oracle = _oracle(done[:-1])
        view = Tree(oracle.files, oracle.dirs)
        oracle.observe(done[-1], completed=False)
    else:
        view = Tree(oracle.files, oracle.dirs)
    assert oracle.check(view) == []


@pytest.mark.parametrize("fs_name", ["nova", "pmfs", "bytefs-dual"])
def test_a_name_reused_by_a_rename_is_another_file(fs_name):
    """(a) /da/f1 is renamed away, then /f0 is renamed onto the name: a
    crash that keeps every name shows two files, not one under two."""
    ops = [("mkdir", "/da"), ("create", "/da/f1"),
           ("rename", "/da/f1", "/da/f0"), ("create", "/f0"),
           ("mkdir", "/db"), ("create", "/f1"),
           ("write", "/f0", 1514, b"w" * 263), ("rename", "/f0", "/da/f1")]
    _clock, _stats, device, fs = make_stack(fs_name)
    oracle = OracleFS()
    for op in ops:
        apply_op(fs, op)
        oracle.observe(op)
    names = read_tree(fs)[0].keys()
    device.power_fail()
    fs.crash()
    fs.remount()
    assert read_tree(fs)[0].keys() == names
    assert oracle.check(fs) == []


@pytest.mark.parametrize("renamed", [False, True])
@pytest.mark.parametrize("size", [100, 8000])
def test_a_rename_keeps_the_pending_truncate(renamed, size):
    """(b) The truncate before the rename may land whether or not the
    rename does: it belongs to the file, not to its first name."""
    oracle = _oracle([("create", "/a"), ("write", "/a", 0, b"A" * 8000),
                      ("sync",), ("trunc", "/a", 100),
                      ("rename", "/a", "/b")])
    tree = Tree({"/b" if renamed else "/a": b"A" * size})
    assert oracle.check(tree) == []


def test_an_unlinked_files_durable_bytes_stay_its_own():
    """(c) The old /f's durable bytes may come back under /f while the
    new /f, renamed to /g, survives too; a mix of the two may not."""
    oracle = _oracle([("create", "/f"), ("write", "/f", 0, b"A" * 8000),
                      ("sync",), ("unlink", "/f"), ("create", "/f"),
                      ("write", "/f", 0, b"B" * 100),
                      ("rename", "/f", "/g")])
    old, new = b"A" * 8000, b"B" * 100
    assert oracle.check(Tree({"/f": old, "/g": new})) == []
    assert oracle.check(Tree({"/g": new})) == []
    assert oracle.check(Tree({"/f": old})) == []
    mixed = oracle.check(Tree({"/f": new + old[100:]}))
    assert any("match neither" in e for e in mixed)


def test_a_rename_that_loses_both_names_is_convicted():
    oracle = _oracle([("create", "/a"), ("write", "/a", 0, b"A" * 64),
                      ("sync",), ("rename", "/a", "/b")])
    assert oracle.check(Tree({})) == ["rename /a -> /b: file lost under "
                                      "every name"]


def test_a_file_under_two_names_is_convicted():
    oracle = _oracle([("create", "/a"), ("sync",), ("rename", "/a", "/b")])
    tree = Tree({"/a": b"", "/b": b""})
    tree.inos["/b"] = tree.inos["/a"]
    errors = oracle.check(tree)
    assert errors and "duplicated under both names" in errors[0]


def test_renaming_a_file_onto_itself_changes_nothing():
    oracle = _oracle([("create", "/a"), ("write", "/a", 0, b"x" * 10),
                      ("rename", "/a", "/a")])
    assert oracle.files == {"/a": b"x" * 10}
