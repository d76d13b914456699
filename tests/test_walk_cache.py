"""The VFS walk cache is invisible: cached resolution ≡ the full walk.

One op-stream driver runs the same namespace operations against a file
system as shipped (walk cache on — there is no way to turn it off) and
against the same file system whose ``_walk`` drops the cache before
every resolution, so it always takes the miss path.  After every op the
two must agree on the return value or exception type, the virtual clock
and every traffic counter: a cache hit may skip only work that charged
nothing and read nothing.

Planted mutants — a missing invalidation on ``rename``, on ``rmdir``,
across the crash protocol, and a fill that takes ``..`` for an entry
name — are each caught by the same driver.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs.vfs import O_CREAT, O_RDONLY, O_RDWR
from tests.conftest import ALL_FS, make_stack

# ---------------------------------------------------------------------- #
# op streams
# ---------------------------------------------------------------------- #

#: path tokens: three names plus every spelling split_path folds away
#: ("" spells ``//`` or a trailing slash)
_TOKENS = ["a", "b", "c", "a", "b", ".", "..", ""]

paths = st.builds(
    lambda absolute, tokens: ("/" if absolute else "") + "/".join(tokens),
    st.sampled_from([True] * 7 + [False]),
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=5),
)

_PATH_OPS = (
    "mkdir", "mkdir", "rmdir", "create", "create", "unlink",
    "open", "stat", "exists", "listdir",
)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_PATH_OPS), paths),
        st.tuples(st.just("rename"), paths, paths),
        st.sampled_from([("sync",), ("crash",)]),
    ),
    min_size=1,
    max_size=30,
)


def _apply(device, fs, op: Tuple):
    kind = op[0]
    if kind == "create":
        fd = fs.open(op[1], O_CREAT | O_RDWR)
        fs.write(fd, b"x")
        fs.close(fd)
        return fd
    if kind == "open":
        fd = fs.open(op[1], O_RDONLY)
        fs.close(fd)
        return fd
    if kind == "crash":
        device.power_fail()
        fs.crash()
        return fs.remount()
    return getattr(fs, kind)(*op[1:])


def _outcome(device, fs, op: Tuple):
    try:
        return ("ok", _apply(device, fs, op))
    except Exception as exc:  # same type on both sides, whatever it is
        return ("raised", type(exc).__name__)


# ---------------------------------------------------------------------- #
# the driver
# ---------------------------------------------------------------------- #

def _always_miss(fs) -> None:
    """The reference side: every resolution takes the full walk."""
    cls = type(fs)

    class FullWalk(cls):
        def _walk(self, path):
            self._walk_cache.clear()
            return super()._walk(path)

    fs.__class__ = FullWalk


def divergence(
    fs_name: str,
    ops: List[Tuple],
    mutate: Optional[Callable] = None,
) -> Optional[str]:
    """First disagreement between the cached and the full-walk file
    system over ``ops`` (``None``: equivalent).  ``mutate`` plants a
    mutant on the cached side."""
    c_clock, c_stats, c_dev, cached = make_stack(fs_name)
    r_clock, r_stats, r_dev, ref = make_stack(fs_name)
    if mutate is not None:
        mutate(cached)
    _always_miss(ref)
    for i, op in enumerate(ops):
        got = _outcome(c_dev, cached, op)
        want = _outcome(r_dev, ref, op)
        if got != want:
            return f"op {i} {op}: {got} != {want}"
        if c_clock.now != r_clock.now:
            return f"op {i} {op}: clock {c_clock.now} != {r_clock.now}"
        if c_stats.to_json() != r_stats.to_json():
            return f"op {i} {op}: traffic differs"
    return None


@pytest.mark.parametrize("fs_name", ALL_FS)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=ops_strategy)
def test_cached_walk_equals_full_walk(fs_name, ops):
    assert divergence(fs_name, ops) is None


def test_the_cache_is_used_and_holds_directories_only():
    """The driver above would pass vacuously against a cache that never
    hits: pin that it fills, hits, and is keyed by directory spelling."""
    _clock, _stats, _dev, fs = make_stack("bytefs")
    fs.mkdir("/a")
    for i in range(8):
        fs.close(fs.open(f"/a/f{i}", O_CREAT | O_RDWR))
    assert fs._walk_cache == {"/": 1, "/a/": fs.stat("/a").ino}
    fs.stat("/a/./f0")
    fs.stat("/a/../a/f0")
    fs.exists("/a/nope")
    assert sorted(fs._walk_cache) == ["/", "/a/", "/a/../a/", "/a/./"]
    # Spellings split_path folds into the parent are never keys.
    for path in ("/a/", "/a/.", "/a/..", "/a//"):
        fs.stat(path)
    assert len(fs._walk_cache) == 4


# ---------------------------------------------------------------------- #
# planted mutants
# ---------------------------------------------------------------------- #

class _StickyCache(dict):
    """A walk cache whose ``clear()`` can be switched off."""

    sticky = False

    def clear(self) -> None:
        if not self.sticky:
            super().clear()


def _no_invalidation(begin: str, end: Optional[str] = None) -> Callable:
    """Mutant: nothing drops the cache from the call of ``fs.<begin>`` to
    the return of ``fs.<end>`` (default: of that same call)."""
    end = end or begin

    def mutate(fs) -> None:
        cls = type(fs)
        cache = fs._walk_cache = _StickyCache(fs._walk_cache)

        def switching(name: str, after: bool) -> Callable:
            def method(self, *args):
                cache.sticky = True
                try:
                    return getattr(cls, name)(self, *args)
                finally:
                    cache.sticky = after
            return method

        body = {end: switching(end, False)}
        if begin != end:
            body[begin] = switching(begin, True)
        fs.__class__ = type("Mutant", (cls,), body)

    return mutate


def _dotdot_is_a_name(fs) -> None:
    """Mutant: the fill does not exclude a last component of ``..``."""
    cls = type(fs)

    class Mutant(cls):
        def _walk(self, path):
            ino, name = super()._walk(path)
            cut = path.rfind("/") + 1
            if path[cut:] == ".." and name is not None:
                self._walk_cache[path[:cut]] = ino
            return ino, name

    fs.__class__ = Mutant


_TREE = [("mkdir", "/a"), ("mkdir", "/a/b"), ("create", "/a/b/f")]

MUTANTS = {
    # the old spelling of a renamed directory keeps resolving
    "rename": (
        _no_invalidation("rename"),
        _TREE + [("stat", "/a/b/f"), ("rename", "/a/b", "/a/c"),
                 ("stat", "/a/b/f")],
    ),
    # a removed directory keeps accepting new entries
    "rmdir": (
        _no_invalidation("rmdir"),
        [("mkdir", "/a"), ("exists", "/a/x"), ("rmdir", "/a"),
         ("create", "/a/x")],
    ),
    # after recovery a hit skips directory loads the full walk pays for
    "crash": (
        _no_invalidation("crash", "remount"),
        _TREE + [("sync",), ("stat", "/a/b/f"), ("crash",),
                 ("stat", "/a/b/f")],
    ),
    # "/a/b/.." is "/a": caching "/a/b/" -> its parent poisons "/a/b/f"
    "dotdot": (
        _dotdot_is_a_name,
        _TREE + [("stat", "/a/b/.."), ("stat", "/a/b/f")],
    ),
}


#: nova rebuilds its whole namespace in DRAM at mount and every namespace
#: op is durable when it returns, so the keys a crash leaves behind are
#: still right there: the invalidation keeps the stated invariant but no
#: op stream can observe its absence.
_CAUGHT = [
    (mutant, fs_name)
    for mutant in sorted(MUTANTS)
    for fs_name in ALL_FS
    if (mutant, fs_name) != ("crash", "nova")
]


@pytest.mark.parametrize("mutant,fs_name", _CAUGHT)
def test_planted_mutant_is_caught(mutant, fs_name):
    mutate, ops = MUTANTS[mutant]
    assert divergence(fs_name, ops) is None
    assert divergence(fs_name, ops, mutate) is not None


# ---------------------------------------------------------------------- #
# rename onto itself
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("fs_name", ALL_FS)
def test_rename_onto_itself_changes_nothing(fs_name):
    """POSIX: when both names are the same file, ``rename`` succeeds and
    does nothing — whichever way either path is spelled, for a file and
    for a directory, cached walk or full walk, and across recovery."""
    renames = [
        ("rename", "/a/b/f", "/a/b/f"),
        ("rename", "/a/b/f", "/a/b/../b/f"),
        ("rename", "/a/./b", "/a/b"),
    ]
    ops = _TREE + [("sync",)] + renames + [("crash",)]
    assert divergence(fs_name, ops) is None

    _clock, stats, device, fs = make_stack(fs_name)
    for op in _TREE + [("sync",)]:
        _apply(device, fs, op)
    traffic = stats.to_json()
    for op in renames:
        assert _outcome(device, fs, op) == ("ok", None)
    assert stats.to_json() == traffic
    assert fs.listdir("/a") == ["b"] and fs.listdir("/a/b") == ["f"]
    _apply(device, fs, ("crash",))
    assert fs.stat("/a/b/f").size == 1
    with pytest.raises(Exception) as missing:
        fs.rename("/a/b/nope", "/a/b/nope")
    assert type(missing.value).__name__ == "FileNotFound"
