"""POSIX semantics tests parametrized over every file system.

These are integration tests: each operation goes through the full stack
(VFS -> FS -> device -> firmware -> FTL -> flash) and data is actually
serialized, so they catch layout and persistence bugs in any layer.
"""

import pytest

from repro.fs.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    ReadOnly,
)
from repro.fs.vfs import (
    O_APPEND,
    O_CREAT,
    O_DIRECT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)


def test_create_write_read(any_fs_or_variant):
    fs = any_fs_or_variant
    fd = fs.open("/a.txt", O_CREAT | O_RDWR)
    assert fs.write(fd, b"hello world") == 11
    assert fs.pread(fd, 0, 11) == b"hello world"
    assert fs.pread(fd, 6, 5) == b"world"
    fs.close(fd)


def test_read_past_eof_truncated(any_fs):
    fs = any_fs
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"12345")
    assert fs.pread(fd, 3, 100) == b"45"
    assert fs.pread(fd, 5, 10) == b""
    fs.close(fd)


def test_sequential_read_uses_position(any_fs):
    fs = any_fs
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"abcdef")
    fs.lseek(fd, 0)
    assert fs.read(fd, 3) == b"abc"
    assert fs.read(fd, 3) == b"def"
    fs.close(fd)


def test_append_mode(any_fs):
    fs = any_fs
    fd = fs.open("/log", O_CREAT | O_RDWR)
    fs.write(fd, b"AAA")
    fs.close(fd)
    fd = fs.open("/log", O_RDWR | O_APPEND)
    fs.write(fd, b"BBB")
    assert fs.pread(fd, 0, 6) == b"AAABBB"
    fs.close(fd)


def test_overwrite_middle(any_fs):
    fs = any_fs
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"x" * 10000)
    fs.pwrite(fd, 5000, b"MARK")
    data = fs.pread(fd, 4998, 8)
    assert data == b"xxMARKxx"
    assert fs.stat("/f").size == 10000
    fs.close(fd)


def test_sparse_hole_reads_zero(any_fs):
    fs = any_fs
    fd = fs.open("/sparse", O_CREAT | O_RDWR)
    fs.pwrite(fd, 20000, b"end")
    assert fs.stat("/sparse").size == 20003
    assert fs.pread(fd, 100, 10) == bytes(10)
    assert fs.pread(fd, 20000, 3) == b"end"
    fs.close(fd)


def test_large_file_multi_extent(any_fs):
    fs = any_fs
    fd = fs.open("/big", O_CREAT | O_RDWR)
    blob = bytes(range(256)) * 1024  # 256 KB
    fs.write(fd, blob)
    fs.fsync(fd)
    assert fs.pread(fd, 0, len(blob)) == blob
    assert fs.pread(fd, 123_456, 1000) == blob[123_456:124_456]
    fs.close(fd)


def test_truncate_shrink_and_grow(any_fs):
    fs = any_fs
    fd = fs.open("/t", O_CREAT | O_RDWR)
    fs.write(fd, b"A" * 9000)
    fs.ftruncate(fd, 100)
    assert fs.stat("/t").size == 100
    assert fs.pread(fd, 0, 200) == b"A" * 100
    fs.ftruncate(fd, 5000)
    assert fs.stat("/t").size == 5000
    fs.close(fd)


def test_open_trunc_flag(any_fs):
    fs = any_fs
    fd = fs.open("/t", O_CREAT | O_RDWR)
    fs.write(fd, b"data")
    fs.close(fd)
    fd = fs.open("/t", O_RDWR | O_TRUNC)
    assert fs.stat("/t").size == 0
    fs.close(fd)


def test_mkdir_listdir_rmdir(any_fs):
    fs = any_fs
    fs.mkdir("/d")
    fs.mkdir("/d/sub")
    fd = fs.open("/d/file", O_CREAT | O_RDWR)
    fs.close(fd)
    assert fs.listdir("/d") == ["file", "sub"]
    fs.unlink("/d/file")
    fs.rmdir("/d/sub")
    assert fs.listdir("/d") == []
    fs.rmdir("/d")
    assert not fs.exists("/d")


def test_rmdir_nonempty_fails(any_fs):
    fs = any_fs
    fs.mkdir("/d")
    fd = fs.open("/d/f", O_CREAT | O_RDWR)
    fs.close(fd)
    with pytest.raises(DirectoryNotEmpty):
        fs.rmdir("/d")


def test_nested_paths(any_fs):
    fs = any_fs
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.mkdir("/a/b/c")
    fd = fs.open("/a/b/c/deep.txt", O_CREAT | O_RDWR)
    fs.write(fd, b"deep")
    fs.close(fd)
    assert fs.stat("/a/b/c/deep.txt").size == 4
    assert fs.listdir("/a/b") == ["c"]


def test_rename_same_dir(any_fs):
    fs = any_fs
    fd = fs.open("/old", O_CREAT | O_RDWR)
    fs.write(fd, b"content")
    fs.close(fd)
    fs.rename("/old", "/new")
    assert not fs.exists("/old")
    fd = fs.open("/new", O_RDONLY)
    assert fs.pread(fd, 0, 7) == b"content"
    fs.close(fd)


def test_rename_across_dirs_and_overwrite(any_fs):
    fs = any_fs
    fs.mkdir("/src")
    fs.mkdir("/dst")
    fd = fs.open("/src/f", O_CREAT | O_RDWR)
    fs.write(fd, b"moved")
    fs.close(fd)
    fd = fs.open("/dst/f", O_CREAT | O_RDWR)
    fs.write(fd, b"will be replaced")
    fs.close(fd)
    fs.rename("/src/f", "/dst/f")
    assert fs.listdir("/src") == []
    fd = fs.open("/dst/f", O_RDONLY)
    assert fs.pread(fd, 0, 100) == b"moved"
    fs.close(fd)


def test_unlink_frees_and_name_reusable(any_fs):
    fs = any_fs
    for round_no in range(3):
        fd = fs.open("/cycle", O_CREAT | O_RDWR)
        fs.write(fd, bytes([round_no]) * 4096)
        fs.fsync(fd)
        fs.close(fd)
        fs.unlink("/cycle")
    assert not fs.exists("/cycle")


def test_errors(any_fs):
    fs = any_fs
    with pytest.raises(FileNotFound):
        fs.open("/missing", O_RDONLY)
    with pytest.raises(FileNotFound):
        fs.unlink("/missing")
    with pytest.raises(FileNotFound):
        fs.stat("/missing")
    fs.mkdir("/d")
    with pytest.raises(FileExists):
        fs.mkdir("/d")
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.close(fd)
    with pytest.raises(FileExists):
        fs.open("/f", O_CREAT | O_EXCL | O_RDWR)
    with pytest.raises(IsADirectory):
        fs.unlink("/d")
    with pytest.raises(NotADirectory):
        fs.rmdir("/f")
    with pytest.raises(NotADirectory):
        fs.open("/f/child", O_CREAT | O_RDWR)
    with pytest.raises(BadFileDescriptor):
        fs.pread(999, 0, 1)
    with pytest.raises(InvalidArgument):
        fs.open("relative/path", O_RDONLY)


#: the fd syscalls, each with whether it charges ``syscall_ns`` before
#: it finds its descriptor unknown (``write`` looks it up first)
FD_CALLS = {
    "close": (lambda fs, fd: fs.close(fd), True),
    "pread": (lambda fs, fd: fs.pread(fd, 0, 1), True),
    "pwrite": (lambda fs, fd: fs.pwrite(fd, 0, b"x"), True),
    "fsync": (lambda fs, fd: fs.fsync(fd), True),
    "fdatasync": (lambda fs, fd: fs.fdatasync(fd), True),
    "write": (lambda fs, fd: fs.write(fd, b"x"), False),
}


@pytest.mark.parametrize("call", sorted(FD_CALLS))
def test_an_unknown_fd_raises_and_charges_the_syscall(any_fs, call):
    fs = any_fs
    run, charged = FD_CALLS[call]
    closed = fs.open("/f", O_CREAT | O_RDWR)
    fs.close(closed)
    for fd in (closed, 999):
        before = fs.clock.now
        with pytest.raises(BadFileDescriptor) as raised:
            run(fs, fd)
        assert str(raised.value) == f"fd {fd}"
        assert fs.clock.now - before == (
            fs.timing.syscall_ns if charged else 0
        )


def test_open_of_the_root_is_an_invalid_argument(any_fs):
    fs = any_fs
    before = fs.clock.now
    with pytest.raises(InvalidArgument) as raised:
        fs.open("/", O_RDONLY)
    assert str(raised.value) == "cannot operate on root: '/'"
    assert fs.clock.now - before == fs.timing.syscall_ns


def test_write_to_readonly_fd_fails(any_fs):
    fs = any_fs
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.close(fd)
    fd = fs.open("/f", O_RDONLY)
    with pytest.raises(ReadOnly):
        fs.write(fd, b"x")
    fs.close(fd)


def test_read_from_writeonly_fd_fails(any_fs):
    fs = any_fs
    fd = fs.open("/f", O_CREAT | O_WRONLY)
    with pytest.raises(ReadOnly):
        fs.pread(fd, 0, 1)
    fs.close(fd)


def test_fsync_and_fdatasync(any_fs):
    fs = any_fs
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"x" * 8192)
    fs.fsync(fd)
    fs.pwrite(fd, 0, b"y")
    fs.fdatasync(fd)
    assert fs.pread(fd, 0, 2) == b"yx"
    fs.close(fd)


def test_direct_io_small_and_large(any_fs):
    fs = any_fs
    fd = fs.open("/d", O_CREAT | O_RDWR)
    fs.write(fd, b"0" * 8192)
    fs.fsync(fd)
    fs.close(fd)
    fd = fs.open("/d", O_RDWR | O_DIRECT)
    fs.pwrite(fd, 128, b"tiny")          # <= 512 B: byte interface path
    fs.pwrite(fd, 4096, b"L" * 4096)     # full page: block path
    assert fs.pread(fd, 128, 4) == b"tiny"
    assert fs.pread(fd, 4096, 4) == b"LLLL"
    fs.close(fd)
    # buffered view stays coherent
    fd = fs.open("/d", O_RDONLY)
    assert fs.pread(fd, 128, 4) == b"tiny"
    fs.close(fd)


def test_stat_fields(any_fs):
    fs = any_fs
    fs.mkdir("/dir")
    fd = fs.open("/file", O_CREAT | O_RDWR)
    fs.write(fd, b"abc")
    fs.close(fd)
    s_dir = fs.stat("/dir")
    s_file = fs.stat("/file")
    assert s_dir.is_dir and not s_file.is_dir
    assert s_file.size == 3
    assert s_file.ino != s_dir.ino


def test_many_files_in_one_directory(any_fs):
    fs = any_fs
    fs.mkdir("/many")
    names = [f"file_{i:03d}" for i in range(120)]
    for name in names:
        fd = fs.open(f"/many/{name}", O_CREAT | O_RDWR)
        fs.write(fd, name.encode())
        fs.close(fd)
    assert fs.listdir("/many") == sorted(names)
    for name in names[::7]:
        fd = fs.open(f"/many/{name}", O_RDONLY)
        assert fs.pread(fd, 0, 100) == name.encode()
        fs.close(fd)


def test_sync_flushes_everything(any_fs):
    fs = any_fs
    fd = fs.open("/s", O_CREAT | O_RDWR)
    fs.write(fd, b"z" * 5000)
    fs.close(fd)
    fs.sync()
    fd = fs.open("/s", O_RDONLY)
    assert fs.pread(fd, 0, 5000) == b"z" * 5000
    fs.close(fd)
