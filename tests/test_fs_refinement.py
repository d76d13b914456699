"""Every file system refines one model: :class:`repro.faults.OracleFS`.

A hypothesis state machine runs random namespace and data ops on a
simulated stack and on the oracle side by side, remounts the stack and
crashes it, and after every step requires the stack's visible tree to
equal the oracle's.  ``read`` compares a ``pread`` with the oracle's
bytes.  ``remount`` makes everything durable first (``sync`` or a clean
``unmount``), then recovers or mounts the device afresh, so nothing may
change across it.  ``crash`` may lose what no barrier covered: the
oracle judges the recovered tree (``OracleFS.check``) and is then
re-seeded from it.

The ``crashsweep`` variant runs twenty times as many examples; a failure
prints the op sequence hypothesis shrank it to.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.bytefs import ByteFS
from repro.faults import OracleFS
from repro.faults.sweep import apply_op
from repro.fs.extfs import ExtFS
from repro.fs.vfs import O_RDONLY
from tests.conftest import ALL_FS_AND_VARIANTS, make_stack

DIRS = ["/da", "/db", "/da/sub"]
FILES = [f"{d}/f{i}" for d in ("", "/da", "/db", "/da/sub") for i in range(2)]

TIER1_EXAMPLES = 25

#: ops between two power cycles at least, so that most steps are ops
OPS_PER_POWER_CYCLE = 4


def _parent(path: str) -> str:
    return path.rsplit("/", 1)[0] or "/"


def read_tree(fs):
    """Walk ``fs``: (files: path -> bytes, dirs: set of paths below /)."""
    files, dirs = {}, set()
    stack = ["/"]
    while stack:
        d = stack.pop()
        for name in fs.listdir(d):
            child = f"{d.rstrip('/')}/{name}"
            st_ = fs.stat(child)
            if st_.is_dir:
                dirs.add(child)
                stack.append(child)
            else:
                fd = fs.open(child, O_RDONLY)
                files[child] = fs.pread(fd, 0, st_.size + 1)
                fs.close(fd)
    return files, dirs


def mount_again(fs):
    """The file system a fresh mount finds on ``fs``'s device."""
    if isinstance(fs, ByteFS):
        return ByteFS(fs.device, fs.variant, fs.cfg, format_device=False)
    if isinstance(fs, ExtFS):
        return ExtFS(fs.device, fs.cfg, format_device=False)
    return type(fs)(fs.device, format_device=False)


class Refinement(RuleBasedStateMachine):
    fs_name = "ext4"

    def __init__(self) -> None:
        super().__init__()
        _clock, _stats, self.device, self.fs = make_stack(self.fs_name)
        self.oracle = OracleFS()
        self.ops_since_power = 0

    def step(self, op) -> None:
        """Run one op on the stack, and on the oracle where it is one."""
        kind, fs, oracle = op[0], self.fs, self.oracle
        self.ops_since_power += 1
        if kind == "read":
            _, path, offset, size = op
            fd = fs.open(path, O_RDONLY)
            got = fs.pread(fd, offset, size)
            fs.close(fd)
            assert got == oracle.content(path)[offset:offset + size]
        elif kind == "remount":  # ("remount", "sync"|"unmount"|"mount")
            oracle.observe(("sync",))
            if op[1] == "sync":
                fs.sync()
                fs.remount()
            elif op[1] == "unmount":
                fs.unmount()
                self.device.power_fail()
                fs.crash()
                fs.remount()
            else:
                fs.unmount()
                self.fs = mount_again(fs)
            self.ops_since_power = 0
        elif kind == "crash":
            self.device.power_fail()
            fs.crash()
            fs.remount()
            assert oracle.check(fs) == []
            files, dirs = read_tree(fs)
            self.oracle = OracleFS()
            for d in sorted(dirs):
                self.oracle.observe(("mkdir", d))
            for path, data in sorted(files.items()):
                self.oracle.observe(("create", path))
                self.oracle.observe(("write", path, 0, data))
            self.oracle.observe(("sync",))
            self.ops_since_power = 0
        else:
            apply_op(fs, op)
            oracle.observe(op)

    def _files(self):
        return sorted(self.oracle.files)

    def _mkdirable(self):
        dirs = self.oracle.dirs
        return [d for d in DIRS if d not in dirs and _parent(d) in dirs]

    def _names(self):
        return [f for f in FILES if _parent(f) in self.oracle.dirs]

    @precondition(lambda self: self._mkdirable())
    @rule(data=st.data())
    def mkdir(self, data):
        self.step(("mkdir", data.draw(st.sampled_from(self._mkdirable()))))

    @rule(data=st.data())
    def create(self, data):
        self.step(("create", data.draw(st.sampled_from(self._names()))))

    @precondition(lambda self: self.oracle.files)
    @rule(data=st.data(), offset=st.integers(0, 30_000),
          size=st.integers(1, 9000), fill=st.integers(1, 255))
    def write(self, data, offset, size, fill):
        path = data.draw(st.sampled_from(self._files()))
        self.step(("write", path, offset, bytes([fill]) * size))

    @precondition(lambda self: self.oracle.files)
    @rule(data=st.data(), size=st.integers(0, 20_000))
    def trunc(self, data, size):
        self.step(("trunc", data.draw(st.sampled_from(self._files())), size))

    @precondition(lambda self: self.oracle.files)
    @rule(data=st.data(),
          kind=st.sampled_from(["fsync", "fdatasync", "sync"]))
    def barrier(self, data, kind):
        if kind == "sync":
            self.step(("sync",))
        else:
            self.step((kind, data.draw(st.sampled_from(self._files()))))

    @precondition(lambda self: self.oracle.files)
    @rule(data=st.data())
    def unlink(self, data):
        self.step(("unlink", data.draw(st.sampled_from(self._files()))))

    @precondition(lambda self: self.oracle.files)
    @rule(data=st.data())
    def rename(self, data):
        src = data.draw(st.sampled_from(self._files()))
        self.step(("rename", src, data.draw(st.sampled_from(self._names()))))

    @precondition(lambda self: self.oracle.files)
    @rule(data=st.data(), offset=st.integers(0, 32_000),
          size=st.integers(1, 10_000))
    def read(self, data, offset, size):
        path = data.draw(st.sampled_from(self._files()))
        self.step(("read", path, offset, size))

    def _may_power_cycle(self):
        return self.ops_since_power >= OPS_PER_POWER_CYCLE

    @precondition(_may_power_cycle)
    @rule(how=st.sampled_from(["sync", "unmount", "mount"]))
    def remount(self, how):
        self.step(("remount", how))

    @precondition(_may_power_cycle)
    @rule()
    def crash(self):
        self.step(("crash",))

    @invariant()
    def tree_matches(self):
        files, dirs = read_tree(self.fs)
        assert dirs == self.oracle.dirs - {"/"}
        assert files == self.oracle.files


def _machine(fs_name: str):
    return type(f"Refinement_{fs_name}", (Refinement,), {"fs_name": fs_name})


def _run(fs_name: str, examples: int) -> None:
    run_state_machine_as_test(_machine(fs_name), settings=settings(
        max_examples=examples,
        stateful_step_count=40,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.filter_too_much],
    ))


@pytest.mark.parametrize("fs_name", ALL_FS_AND_VARIANTS)
def test_fs_refines_oracle(fs_name):
    _run(fs_name, TIER1_EXAMPLES)


@pytest.mark.crashsweep
@pytest.mark.parametrize("fs_name", ALL_FS_AND_VARIANTS)
def test_fs_refines_oracle_long(fs_name):
    _run(fs_name, 20 * TIER1_EXAMPLES)
