"""Stateful model-based testing: every file system vs. the fault oracle.

Hypothesis drives random sequences of create/write/read/truncate/
unlink/rename/fsync operations against a simulated file system and
:class:`repro.faults.OracleFS`, the one model of what a file system
promises, and requires identical observable behaviour: every read
returns the oracle's bytes, and the final tree is the oracle's.  Writes
and truncates reach far enough to exercise extent growth/spill, dentry
slot reuse, page-cache coherence, out-of-place updates and CoW tracking
together.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults import OracleFS
from repro.faults.sweep import apply_op
from repro.fs.vfs import O_RDONLY
from tests.conftest import make_stack
from tests.test_fs_refinement import read_tree

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


def _apply(fs, oracle, op):
    """Run ``op`` on both sides; a write to a missing file creates it."""
    kind, path = op[0], op[1]
    expect = oracle.content(path)
    if kind == "write" and expect is None:
        _apply(fs, oracle, ("create", path))
    elif kind == "read":
        if expect is None:
            return
        _, _, offset, length = op
        fd = fs.open(path, O_RDONLY)
        got = fs.pread(fd, offset, length)
        fs.close(fd)
        assert got == expect[offset:offset + length], (op, len(got))
        return
    elif expect is None and kind != "create":
        return
    apply_op(fs, op)
    oracle.observe(op)


def _verify_all(fs, oracle):
    files, dirs = read_tree(fs)
    assert dirs == set()
    assert files == oracle.files


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs", "f2fs", "nova", "pmfs"])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops_strategy)
def test_fs_matches_model(fs_name, ops):
    _clk, _st, _dev, fs = make_stack(fs_name)
    oracle = OracleFS()
    for op in ops:
        _apply(fs, oracle, op)
    _verify_all(fs, oracle)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=ops_strategy)
def test_bytefs_model_survives_crash_after_sync(ops):
    """After a sync, a crash + recovery must reproduce the full model."""
    _clk, _st, device, fs = make_stack("bytefs")
    oracle = OracleFS()
    for op in ops:
        _apply(fs, oracle, op)
    apply_op(fs, ("sync",))
    oracle.observe(("sync",))
    device.power_fail()
    fs.crash()
    fs.remount()
    assert oracle.check(fs) == []
    _verify_all(fs, oracle)
