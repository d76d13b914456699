"""The virtual file system layer: POSIX-like API, fd table, path walking.

Every file system in the reproduction subclasses :class:`BaseFileSystem`
and implements the inode-level hooks; the base class provides open flags,
descriptor management, path resolution, application-traffic recording (the
denominator of the paper's amplification factors), and the per-syscall CPU
cost.

**The walk cache.**  Path resolution is generic and sits above the
per-fs directory operations, so one cache serves all five file systems:
``_walk_cache`` maps the *spelling* of a parent directory (everything up
to and including the last ``/`` of a path, exactly as the caller wrote
it) to that directory's inode number.  It is filled only by a successful
full walk and only for a path whose last component is a real name (not
empty, ``.`` or ``..``, which :func:`split_path` folds into the parent).
The invariant is: *a cached key implies every directory on its path is
loaded in the file system's own directory cache* — the walk a hit
replaces therefore charged no simulated time and read nothing from the
device, and skipping it changes no result.  The cache is dropped
wherever that stops holding: ``rmdir`` and ``rename`` (a spelling may
now name another directory or none), :meth:`BaseFileSystem.crash`, and
every point where a file system discards directory state (mkfs/mount,
the end of f2fs's roll-forward recovery).  The full walk is the miss
path, not a second mode: there is no way to run without the cache.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.fs.errors import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    ReadOnly,
)
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.stats.traffic import Direction, TrafficStats


O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_EXCL = 0x80
O_TRUNC = 0x200
O_APPEND = 0x400
O_DIRECT = 0x4000

_ACCMODE = 0x3


@dataclass
class Stat:
    ino: int
    size: int
    is_dir: bool
    nlink: int
    mtime_ns: float
    ctime_ns: float


class FileHandle:
    """One open descriptor."""

    __slots__ = ("fd", "ino", "flags", "pos")

    def __init__(self, fd: int, ino: int, flags: int) -> None:
        self.fd = fd
        self.ino = ino
        self.flags = flags
        self.pos = 0

    @property
    def readable(self) -> bool:
        return (self.flags & _ACCMODE) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & _ACCMODE) in (O_WRONLY, O_RDWR)

    @property
    def direct(self) -> bool:
        return bool(self.flags & O_DIRECT)


def split_path(path: str) -> List[str]:
    """Normalize an absolute path into components."""
    if not path.startswith("/"):
        raise InvalidArgument(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p and p != "."]
    out: List[str] = []
    for p in parts:
        if p == "..":
            if out:
                out.pop()
        else:
            out.append(p)
    return out


class BaseFileSystem(abc.ABC):
    """Common machinery for every simulated file system."""

    name = "base"

    def __init__(
        self,
        clock: VirtualClock,
        stats: TrafficStats,
        timing: TimingModel,
    ) -> None:
        self.clock = clock
        self.stats = stats
        self.timing = timing
        self._handles: Dict[int, FileHandle] = {}
        self._next_fd = 3
        #: parent-directory spelling -> inode (see the module docstring)
        self._walk_cache: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # hooks each file system must implement (inode level)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _root_ino(self) -> int: ...

    @abc.abstractmethod
    def _dir_lookup(self, dir_ino: int, name: str) -> Optional[int]: ...

    @abc.abstractmethod
    def _is_dir(self, ino: int) -> bool: ...

    @abc.abstractmethod
    def _create_file(self, dir_ino: int, name: str) -> int: ...

    @abc.abstractmethod
    def _create_dir(self, dir_ino: int, name: str) -> int: ...

    @abc.abstractmethod
    def _remove_file(self, dir_ino: int, name: str, ino: int) -> None: ...

    @abc.abstractmethod
    def _remove_dir(self, dir_ino: int, name: str, ino: int) -> None: ...

    @abc.abstractmethod
    def _rename(
        self, src_dir: int, src_name: str, dst_dir: int, dst_name: str
    ) -> None: ...

    @abc.abstractmethod
    def _read(self, ino: int, offset: int, length: int, direct: bool) -> bytes: ...

    @abc.abstractmethod
    def _write(
        self, ino: int, offset: int, data: bytes, direct: bool
    ) -> int: ...

    @abc.abstractmethod
    def _truncate(self, ino: int, size: int) -> None: ...

    @abc.abstractmethod
    def _file_size(self, ino: int) -> int: ...

    @abc.abstractmethod
    def _fsync(self, ino: int, data_only: bool) -> None: ...

    @abc.abstractmethod
    def _sync(self) -> None: ...

    @abc.abstractmethod
    def _readdir(self, ino: int) -> List[str]: ...

    @abc.abstractmethod
    def _stat(self, ino: int) -> Stat: ...

    # ------------------------------------------------------------------ #
    # path resolution
    # ------------------------------------------------------------------ #

    def _walk(self, path: str) -> Tuple[int, Optional[str]]:
        """The directory holding ``path``'s last component, and that
        component (``None`` when ``path`` is the root itself)."""
        cut = path.rfind("/") + 1
        tail = path[cut:]
        # ``tail`` is an entry name in the directory ``path[:cut]`` spells
        # only when split_path keeps it as the last component.
        key = path[:cut] if tail not in ("", ".", "..") else None
        if key is not None:
            ino = self._walk_cache.get(key)
            if ino is not None:
                return ino, tail
        parts = split_path(path)
        ino = self._root_ino()
        if not parts:
            return ino, None
        for name in parts[:-1]:
            if not self._is_dir(ino):
                raise NotADirectory(path)
            child = self._dir_lookup(ino, name)
            if child is None:
                raise FileNotFound(path)
            ino = child
        if not self._is_dir(ino):
            raise NotADirectory(path)
        if key is not None:
            self._walk_cache[key] = ino
        return ino, parts[-1]

    def _resolve(self, path: str) -> int:
        """Walk ``path`` to an inode number or raise FileNotFound."""
        ino, name = self._walk(path)
        if name is None:
            return ino
        child = self._dir_lookup(ino, name)
        if child is None:
            raise FileNotFound(path)
        return child

    def _resolve_parent(self, path: str) -> Tuple[int, str]:
        ino, name = self._walk(path)
        if name is None:
            raise InvalidArgument(f"cannot operate on root: {path!r}")
        return ino, name

    # ------------------------------------------------------------------ #
    # public POSIX-like API
    # ------------------------------------------------------------------ #

    def _syscall(self) -> None:
        self.clock.advance(self.timing.syscall_ns)

    def open(self, path: str, flags: int = O_RDONLY) -> int:
        self._syscall()
        parent, name = self._resolve_parent(path)
        ino = self._dir_lookup(parent, name)
        if ino is None:
            if not flags & O_CREAT:
                raise FileNotFound(path)
            ino = self._create_file(parent, name)
        else:
            if flags & O_CREAT and flags & O_EXCL:
                raise FileExists(path)
            if self._is_dir(ino) and (flags & _ACCMODE) != O_RDONLY:
                raise IsADirectory(path)
        if flags & O_TRUNC and not self._is_dir(ino):
            self._truncate(ino, 0)
        fd = self._next_fd
        self._next_fd += 1
        handle = FileHandle(fd, ino, flags)
        if flags & O_APPEND:
            handle.pos = self._file_size(ino)
        self._handles[fd] = handle
        return fd

    def close(self, fd: int) -> None:
        self._syscall()
        self._handle(fd)
        del self._handles[fd]

    def _handle(self, fd: int) -> FileHandle:
        handle = self._handles.get(fd)
        if handle is None:
            raise BadFileDescriptor(f"fd {fd}")
        return handle

    def read(self, fd: int, length: int) -> bytes:
        handle = self._handle(fd)
        data = self.pread(fd, handle.pos, length)
        handle.pos += len(data)
        return data

    def pread(self, fd: int, offset: int, length: int) -> bytes:
        self._syscall()
        handle = self._handle(fd)
        if not handle.readable:
            raise ReadOnly(f"fd {fd} not readable")
        if length < 0 or offset < 0:
            raise InvalidArgument("negative offset/length")
        data = self._read(handle.ino, offset, length, handle.direct)
        self.stats.record_app(Direction.READ, len(data))
        return data

    def write(self, fd: int, data: bytes) -> int:
        handle = self._handle(fd)
        if handle.flags & O_APPEND:
            handle.pos = self._file_size(handle.ino)
        n = self.pwrite(fd, handle.pos, data)
        handle.pos += n
        return n

    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        self._syscall()
        handle = self._handle(fd)
        if not handle.writable:
            raise ReadOnly(f"fd {fd} not writable")
        if offset < 0:
            raise InvalidArgument("negative offset")
        n = self._write(handle.ino, offset, bytes(data), handle.direct)
        self.stats.record_app(Direction.WRITE, n)
        return n

    def lseek(self, fd: int, pos: int) -> int:
        handle = self._handle(fd)
        if pos < 0:
            raise InvalidArgument("negative seek")
        handle.pos = pos
        return pos

    def fsync(self, fd: int) -> None:
        self._syscall()
        handle = self._handle(fd)
        self._fsync(handle.ino, data_only=False)

    def fdatasync(self, fd: int) -> None:
        self._syscall()
        handle = self._handle(fd)
        self._fsync(handle.ino, data_only=True)

    def sync(self) -> None:
        self._syscall()
        self._sync()

    def ftruncate(self, fd: int, size: int) -> None:
        self._syscall()
        handle = self._handle(fd)
        if size < 0:
            raise InvalidArgument("negative size")
        self._truncate(handle.ino, size)

    def mkdir(self, path: str) -> None:
        self._syscall()
        parent, name = self._resolve_parent(path)
        if self._dir_lookup(parent, name) is not None:
            raise FileExists(path)
        self._create_dir(parent, name)

    def rmdir(self, path: str) -> None:
        self._syscall()
        parent, name = self._resolve_parent(path)
        ino = self._dir_lookup(parent, name)
        if ino is None:
            raise FileNotFound(path)
        if not self._is_dir(ino):
            raise NotADirectory(path)
        self._walk_cache.clear()
        self._remove_dir(parent, name, ino)

    def unlink(self, path: str) -> None:
        self._syscall()
        parent, name = self._resolve_parent(path)
        ino = self._dir_lookup(parent, name)
        if ino is None:
            raise FileNotFound(path)
        if self._is_dir(ino):
            raise IsADirectory(path)
        self._remove_file(parent, name, ino)

    def rename(self, src: str, dst: str) -> None:
        self._syscall()
        src_dir, src_name = self._resolve_parent(src)
        if self._dir_lookup(src_dir, src_name) is None:
            raise FileNotFound(src)
        dst_dir, dst_name = self._resolve_parent(dst)
        if (src_dir, src_name) == (dst_dir, dst_name):
            return  # POSIX: both names are the same file, nothing to do
        self._walk_cache.clear()
        self._rename(src_dir, src_name, dst_dir, dst_name)

    def stat(self, path: str) -> Stat:
        self._syscall()
        return self._stat(self._resolve(path))

    def exists(self, path: str) -> bool:
        try:
            self._resolve(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def listdir(self, path: str) -> List[str]:
        self._syscall()
        ino = self._resolve(path)
        if not self._is_dir(ino):
            raise NotADirectory(path)
        return self._readdir(ino)

    def unmount(self) -> None:
        """Flush all volatile state; the default just syncs."""
        self._sync()

    # crash protocol ------------------------------------------------------

    def crash(self) -> None:
        """Drop host-volatile state (page caches, metadata caches, open
        fds).  Device-side state is handled by MSSD.power_fail()."""
        self._handles.clear()
        self._next_fd = 3
        self._walk_cache.clear()

    def remount(self) -> Dict[str, float]:
        """Recover after a crash; returns recovery statistics."""
        return {}
