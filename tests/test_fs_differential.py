"""Fixed-seed replays: every file system vs. the fault oracle.

Random operation sequences (seeded through :func:`repro.sim.rng.make_rng`,
so a failure reproduces from its seed alone) run against each simulated
file system while being mirrored into :class:`repro.faults.OracleFS`.
The oracle's *volatile* view (``files``/``dirs``/``content``) is the
reference model; the visible state of the real file system must match it
exactly at checkpoints, and again after ``sync`` + remount.

``test_fs_refinement.py`` draws its sequences from hypothesis against the
same oracle and adds crashes; the runs here are fixed and longer.
"""

from __future__ import annotations

import pytest

from repro.faults import OracleFS
from repro.faults.sweep import apply_op
from repro.sim.rng import make_rng
from tests.conftest import ALL_FS_AND_VARIANTS, make_stack
from tests.test_fs_refinement import DIRS, FILES, read_tree

N_OPS = 110
CHECK_EVERY = 20


def generate_ops(seed: int, n_ops: int = N_OPS):
    """A random but always-valid op sequence for one run."""
    rng = make_rng(seed, "difftest:ops")
    dirs = set()
    files = set()
    ops = []
    for _ in range(n_ops):
        kind = rng.choices(
            ["mkdir", "create", "write", "trunc", "fsync", "fdatasync",
             "sync", "unlink", "rename"],
            weights=[4, 10, 30, 8, 10, 4, 3, 6, 6],
        )[0]
        if kind == "mkdir":
            avail = [d for d in DIRS if d not in dirs
                     and (d.rsplit("/", 1)[0] or "/") in dirs | {"/"}]
            if not avail:
                continue
            d = rng.choice(avail)
            dirs.add(d)
            ops.append(("mkdir", d))
        elif kind == "create":
            avail = [f for f in FILES
                     if (f.rsplit("/", 1)[0] or "/") in dirs | {"/"}]
            if not avail:
                continue
            path = rng.choice(avail)
            files.add(path)
            ops.append(("create", path))
        elif kind in ("write", "trunc", "fsync", "fdatasync", "unlink"):
            if not files:
                continue
            path = rng.choice(sorted(files))
            if kind == "write":
                off = rng.randrange(0, 6000)
                data = bytes([rng.randrange(1, 256)]) * rng.randrange(1, 2500)
                ops.append(("write", path, off, data))
            elif kind == "trunc":
                ops.append(("trunc", path, rng.randrange(0, 9000)))
            elif kind == "unlink":
                files.discard(path)
                ops.append(("unlink", path))
            else:
                ops.append((kind, path))
        elif kind == "sync":
            ops.append(("sync",))
        else:  # rename: file -> fresh or existing file path, valid parent
            if not files:
                continue
            src = rng.choice(sorted(files))
            targets = [f for f in FILES if f != src
                       and (f.rsplit("/", 1)[0] or "/") in dirs | {"/"}]
            if not targets:
                continue
            dst = rng.choice(targets)
            files.discard(src)
            files.add(dst)
            ops.append(("rename", src, dst))
    return ops


def assert_same_state(fs, oracle: OracleFS, where: str) -> None:
    got_files, got_dirs = read_tree(fs)
    want_dirs = oracle.dirs - {"/"}  # the walk starts below the root
    assert got_dirs == want_dirs, (
        f"{where}: directory sets differ "
        f"(missing={sorted(want_dirs - got_dirs)}, "
        f"extra={sorted(got_dirs - want_dirs)})"
    )
    want_files = oracle.files
    assert set(got_files) == set(want_files), (
        f"{where}: file sets differ "
        f"(missing={sorted(set(want_files) - set(got_files))}, "
        f"extra={sorted(set(got_files) - set(want_files))})"
    )
    for path in sorted(want_files):
        assert got_files[path] == want_files[path], (
            f"{where}: {path} content mismatch "
            f"(got {len(got_files[path])} B, "
            f"want {len(want_files[path])} B)"
        )


@pytest.mark.parametrize("fs_name", ALL_FS_AND_VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fs_matches_oracle(fs_name, seed):
    ops = generate_ops(seed)
    _clk, _stats, _dev, fs = make_stack(fs_name)
    oracle = OracleFS()
    for i, op in enumerate(ops):
        try:
            apply_op(fs, op)
        except Exception as exc:
            raise AssertionError(
                f"[{fs_name} seed={seed}] op {i} {op!r} raised {exc!r}"
            ) from exc
        oracle.observe(op, completed=True)
        if (i + 1) % CHECK_EVERY == 0:
            assert_same_state(
                fs, oracle, f"[{fs_name} seed={seed}] after op {i}"
            )
    assert_same_state(fs, oracle, f"[{fs_name} seed={seed}] final")


@pytest.mark.parametrize("fs_name", ALL_FS_AND_VARIANTS)
def test_fs_matches_oracle_after_remount(fs_name):
    """sync() makes everything durable: remount must reproduce the view."""
    ops = generate_ops(seed=3)
    _clk, _stats, _dev, fs = make_stack(fs_name)
    oracle = OracleFS()
    for op in ops:
        apply_op(fs, op)
        oracle.observe(op, completed=True)
    apply_op(fs, ("sync",))
    oracle.observe(("sync",), completed=True)
    fs.remount()
    assert_same_state(fs, oracle, f"[{fs_name}] after sync+remount")


def test_generate_ops_deterministic():
    assert generate_ops(5) == generate_ops(5)
    assert generate_ops(5) != generate_ops(6)
