"""Crash-consistency and recovery integration tests (§4.7, §5.5).

The crash protocol: ``device.power_fail()`` (battery-backed device DRAM
is retained), ``fs.crash()`` (all host-volatile state is lost), then
``fs.remount()`` (firmware RECOVER() plus file-system-level recovery).
Every assertion below re-parses state from the device.
"""

import pytest

from repro.fs.vfs import O_CREAT, O_RDONLY, O_RDWR
from tests.conftest import ALL_FS_AND_VARIANTS, make_stack


def crash_and_remount(device, fs):
    device.power_fail()
    fs.crash()
    return fs.remount()


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs", "bytefs-log"])
def test_fsynced_data_survives_crash(fs_name):
    _clk, _st, device, fs = make_stack(fs_name)
    fd = fs.open("/safe", O_CREAT | O_RDWR)
    fs.write(fd, b"S" * 6000)
    fs.fsync(fd)
    fs.close(fd)
    crash_and_remount(device, fs)
    assert fs.exists("/safe")
    assert fs.stat("/safe").size == 6000
    fd = fs.open("/safe", O_RDONLY)
    assert fs.pread(fd, 0, 6000) == b"S" * 6000
    fs.close(fd)


def test_ext4_unsynced_create_vanishes():
    _clk, _st, device, fs = make_stack("ext4")
    fd = fs.open("/volatile", O_CREAT | O_RDWR)
    fs.write(fd, b"gone")
    # no fsync, no sync: the journal never committed
    crash_and_remount(device, fs)
    assert not fs.exists("/volatile")


def test_bytefs_unsynced_create_vanishes_like_ext4():
    """Namespace updates ride a batched transaction (committed every N
    ops / on fsync, like JBD2's timer); an un-fsynced create before the
    first commit is discarded at recovery, matching Ext4 semantics."""
    _clk, _st, device, fs = make_stack("bytefs")
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"D" * 100)
    rec = crash_and_remount(device, fs)
    assert rec["discarded_entries"] >= 1
    assert not fs.exists("/f")


def test_bytefs_fsync_commits_pending_namespace_ops():
    """fsync on a freshly created file must also make its creation
    durable (the namespace transaction commits before the inode's)."""
    _clk, _st, device, fs = make_stack("bytefs")
    fs.mkdir("/dir")
    fd = fs.open("/dir/f", O_CREAT | O_RDWR)
    fs.write(fd, b"X" * 200)
    fs.fsync(fd)
    crash_and_remount(device, fs)
    assert fs.exists("/dir/f")
    assert fs.stat("/dir/f").size == 200


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs"])
def test_fsynced_overwrite_survives(fs_name):
    _clk, _st, device, fs = make_stack(fs_name)
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"A" * 8192)
    fs.fsync(fd)
    fs.pwrite(fd, 4000, b"PATCH")
    fs.fsync(fd)
    fs.close(fd)
    crash_and_remount(device, fs)
    fd = fs.open("/f", O_RDONLY)
    assert fs.pread(fd, 4000, 5) == b"PATCH"
    assert fs.pread(fd, 0, 10) == b"A" * 10
    fs.close(fd)


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs"])
def test_directory_tree_survives_crash_after_sync(fs_name):
    _clk, _st, device, fs = make_stack(fs_name)
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    for i in range(20):
        fd = fs.open(f"/a/b/f{i}", O_CREAT | O_RDWR)
        fs.write(fd, bytes([i]) * 100)
        fs.close(fd)
    fs.sync()
    crash_and_remount(device, fs)
    assert fs.listdir("/a") == ["b"]
    assert len(fs.listdir("/a/b")) == 20
    fd = fs.open("/a/b/f7", O_RDONLY)
    assert fs.pread(fd, 0, 100) == bytes([7]) * 100
    fs.close(fd)


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs"])
def test_unlink_survives_crash_after_fsyncish_boundary(fs_name):
    _clk, _st, device, fs = make_stack(fs_name)
    fd = fs.open("/dead", O_CREAT | O_RDWR)
    fs.write(fd, b"x" * 4096)
    fs.fsync(fd)
    fs.close(fd)
    fs.unlink("/dead")
    fs.sync()
    crash_and_remount(device, fs)
    assert not fs.exists("/dead")


def test_ext4_journal_replay_count():
    _clk, _st, device, fs = make_stack("ext4")
    for i in range(3):
        fd = fs.open(f"/j{i}", O_CREAT | O_RDWR)
        fs.write(fd, b"j" * 1000)
        fs.fsync(fd)
        fs.close(fd)
    rec = crash_and_remount(device, fs)
    assert rec["journal_txs_replayed"] >= 1
    for i in range(3):
        assert fs.exists(f"/j{i}")


def test_f2fs_checkpoint_plus_roll_forward():
    """Checkpointed state recovers; a post-checkpoint *fsynced* file is
    rolled forward from the node log (F2FS's fsync recovery); a
    post-checkpoint un-fsynced file rolls back."""
    _clk, _st, device, fs = make_stack("f2fs")
    fd = fs.open("/before", O_CREAT | O_RDWR)
    fs.write(fd, b"B" * 3000)
    fs.close(fd)
    fs.sync()  # checkpoint
    fd = fs.open("/after", O_CREAT | O_RDWR)
    fs.write(fd, b"A" * 3000)
    fs.fsync(fd)
    fs.close(fd)
    fd = fs.open("/unsynced", O_CREAT | O_RDWR)
    fs.write(fd, b"U" * 1000)
    rec = crash_and_remount(device, fs)
    assert fs.exists("/before")
    fd = fs.open("/before", O_RDONLY)
    assert fs.pread(fd, 0, 3000) == b"B" * 3000
    fs.close(fd)
    # fsynced node rolled forward
    assert rec["rolled_forward"] >= 1
    assert fs.exists("/after")
    fd = fs.open("/after", O_RDONLY)
    assert fs.pread(fd, 0, 3000) == b"A" * 3000
    fs.close(fd)
    # un-fsynced create rolls back to the checkpoint
    assert not fs.exists("/unsynced")


def test_f2fs_roll_forward_survives_second_crash():
    _clk, _st, device, fs = make_stack("f2fs")
    fs.sync()
    fd = fs.open("/rf", O_CREAT | O_RDWR)
    fs.write(fd, b"R" * 2000)
    fs.fsync(fd)
    fs.close(fd)
    crash_and_remount(device, fs)
    assert fs.exists("/rf")
    crash_and_remount(device, fs)  # recovery checkpointed: still there
    fd = fs.open("/rf", O_RDONLY)
    assert fs.pread(fd, 0, 2000) == b"R" * 2000
    fs.close(fd)


@pytest.mark.parametrize("fs_name", ["nova", "pmfs"])
def test_dax_fs_writes_durable_at_completion(fs_name):
    _clk, _st, device, fs = make_stack(fs_name)
    fs.mkdir("/d")
    fd = fs.open("/d/f", O_CREAT | O_RDWR)
    fs.write(fd, b"immediately durable")
    # no fsync needed for NVM-style file systems
    crash_and_remount(device, fs)
    assert fs.exists("/d/f")
    fd = fs.open("/d/f", O_RDONLY)
    assert fs.pread(fd, 0, 100) == b"immediately durable"
    fs.close(fd)


@pytest.mark.parametrize("fs_name", ["nova", "pmfs"])
def test_dax_fs_namespace_ops_survive(fs_name):
    _clk, _st, device, fs = make_stack(fs_name)
    fd = fs.open("/keep", O_CREAT | O_RDWR)
    fs.write(fd, b"k")
    fs.close(fd)
    fd = fs.open("/kill", O_CREAT | O_RDWR)
    fs.close(fd)
    fs.unlink("/kill")
    fs.rename("/keep", "/kept")
    crash_and_remount(device, fs)
    assert fs.exists("/kept")
    assert not fs.exists("/keep")
    assert not fs.exists("/kill")


def test_recovery_reports_duration():
    _clk, _st, device, fs = make_stack("bytefs")
    for i in range(10):
        fd = fs.open(f"/r{i}", O_CREAT | O_RDWR)
        fs.write(fd, b"r" * 500)
        fs.fsync(fd)
        fs.close(fd)
    rec = crash_and_remount(device, fs)
    assert rec["duration_ns"] > 0
    assert rec["flushed_pages"] >= 1


def test_double_crash(any_fs_with_device=None):
    """Crashing twice in a row must still recover cleanly."""
    _clk, _st, device, fs = make_stack("bytefs")
    fd = fs.open("/x", O_CREAT | O_RDWR)
    fs.write(fd, b"1" * 4096)
    fs.fsync(fd)
    fs.close(fd)
    crash_and_remount(device, fs)
    fd = fs.open("/x", O_RDWR)
    fs.pwrite(fd, 0, b"2")
    fs.fsync(fd)
    fs.close(fd)
    crash_and_remount(device, fs)
    fd = fs.open("/x", O_RDONLY)
    assert fs.pread(fd, 0, 2) == b"21"
    fs.close(fd)


@pytest.mark.parametrize("fs_name", ALL_FS_AND_VARIANTS)
def test_create_after_remount_keeps_every_synced_file(fs_name):
    """The first create after recovery persists an inode into an itable
    block the new mount has not read yet (32 inodes a block): the
    block's other inodes must come from the device, not from zeros —
    in memory at once, and in what jbd2 journals for the next mount."""
    _clk, _st, device, fs = make_stack(fs_name)
    files = {f"/f{i}": bytes([i]) * (100 + i) for i in range(40)}
    for path, data in files.items():
        fd = fs.open(path, O_CREAT | O_RDWR)
        fs.write(fd, data)
        fs.close(fd)
    fs.sync()
    crash_and_remount(device, fs)
    files["/f40"] = b"new" * 50
    fd = fs.open("/f40", O_CREAT | O_RDWR)
    fs.write(fd, files["/f40"])
    fs.close(fd)
    for after_second_crash in (False, True):
        if after_second_crash:
            fs.sync()
            crash_and_remount(device, fs)
        for path, data in files.items():
            assert fs.stat(path).size == len(data), (path, after_second_crash)
            fd = fs.open(path, O_RDONLY)
            assert fs.pread(fd, 0, len(data)) == data, path
            fs.close(fd)


def test_clean_unmount_then_mount_preserves_everything():
    from repro.fs.extfs import ExtFS
    _clk, _st, device, fs = make_stack("ext4")
    fs.mkdir("/data")
    fd = fs.open("/data/file", O_CREAT | O_RDWR)
    fs.write(fd, b"persistent" * 100)
    fs.close(fd)
    fs.unmount()
    fs2 = ExtFS(device, format_device=False)
    assert fs2.exists("/data/file")
    fd = fs2.open("/data/file", O_RDONLY)
    assert fs2.pread(fd, 0, 10) == b"persistent"
    fs2.close(fd)
