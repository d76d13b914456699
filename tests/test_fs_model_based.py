"""Stateful model-based testing: every file system vs. a dict model.

Hypothesis drives random sequences of create/write/read/truncate/
unlink/mkdir/rename/fsync operations against a simulated file system and
an in-memory reference model, asserting identical observable behaviour
after every step.  This is the strongest correctness net in the suite:
it exercises extent growth/spill, dentry slot reuse, page-cache
coherence, out-of-place updates, and CoW tracking together.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs.errors import FSError
from repro.fs.vfs import O_CREAT, O_RDWR
from tests.conftest import make_stack

FILES = [f"/f{i}" for i in range(4)]

write_op = st.tuples(
    st.just("write"),
    st.sampled_from(FILES),
    st.integers(0, 30_000),
    st.binary(min_size=1, max_size=9_000),
)
read_op = st.tuples(
    st.just("read"),
    st.sampled_from(FILES),
    st.integers(0, 32_000),
    st.integers(1, 10_000),
)
trunc_op = st.tuples(
    st.just("trunc"), st.sampled_from(FILES), st.integers(0, 20_000)
)
unlink_op = st.tuples(st.just("unlink"), st.sampled_from(FILES))
fsync_op = st.tuples(st.just("fsync"), st.sampled_from(FILES))
rename_op = st.tuples(
    st.just("rename"), st.sampled_from(FILES), st.sampled_from(FILES)
)

ops_strategy = st.lists(
    st.one_of(write_op, read_op, trunc_op, unlink_op, fsync_op, rename_op),
    min_size=1,
    max_size=40,
)


def _apply(fs, model, op):
    kind = op[0]
    if kind == "write":
        _, path, offset, data = op
        fd = fs.open(path, O_CREAT | O_RDWR)
        fs.pwrite(fd, offset, data)
        fs.close(fd)
        cur = model.get(path, b"")
        if len(cur) < offset:
            cur = cur + bytes(offset - len(cur))
        model[path] = cur[:offset] + data + cur[offset + len(data):]
    elif kind == "read":
        _, path, offset, length = op
        if path not in model:
            return
        fd = fs.open(path, O_RDWR)
        got = fs.pread(fd, offset, length)
        fs.close(fd)
        expect = model[path][offset : offset + length]
        assert got == expect, (op, len(got), len(expect))
    elif kind == "trunc":
        _, path, size = op
        if path not in model:
            return
        fd = fs.open(path, O_RDWR)
        fs.ftruncate(fd, size)
        fs.close(fd)
        cur = model[path]
        model[path] = (
            cur[:size] if size <= len(cur) else cur + bytes(size - len(cur))
        )
    elif kind == "unlink":
        _, path = op
        if path not in model:
            return
        fs.unlink(path)
        del model[path]
    elif kind == "fsync":
        _, path = op
        if path not in model:
            return
        fd = fs.open(path, O_RDWR)
        fs.fsync(fd)
        fs.close(fd)
    elif kind == "rename":
        _, src, dst = op
        if src not in model:
            return
        fs.rename(src, dst)
        model[dst] = model.pop(src)


def _verify_all(fs, model):
    for path, expect in model.items():
        assert fs.exists(path)
        assert fs.stat(path).size == len(expect)
        fd = fs.open(path, O_RDWR)
        assert fs.pread(fd, 0, len(expect) + 1) == expect
        fs.close(fd)
    for path in FILES:
        if path not in model:
            assert not fs.exists(path)


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs", "f2fs", "nova", "pmfs"])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops_strategy)
def test_fs_matches_model(fs_name, ops):
    _clk, _st, _dev, fs = make_stack(fs_name)
    model = {}
    for op in ops:
        _apply(fs, model, op)
    _verify_all(fs, model)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops_strategy)
def test_bytefs_model_survives_crash_after_sync(ops):
    """After a sync, a crash + recovery must reproduce the full model."""
    _clk, _st, device, fs = make_stack("bytefs")
    model = {}
    for op in ops:
        _apply(fs, model, op)
    fs.sync()
    device.power_fail()
    fs.crash()
    fs.remount()
    _verify_all(fs, model)
