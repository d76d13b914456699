"""The one model of what a file system promises.

:class:`OracleFS` mirrors a workload at the syscall level.  Its visible
state (:attr:`files`, :attr:`dirs`, :meth:`content`) is the POSIX view a
running file system must show after every op; its durable state decides
whether a file system recovered from a crash is admissible
(:meth:`check`).  ``tests/test_fs_refinement.py`` checks every stack as
a refinement of it, through remounts and crashes.

Files are tracked per **incarnation** — the file a name points to — not
per path.  A rename moves the incarnation, with its pending ops, to the
new name; an unlink followed by a create under the same name makes a
second incarnation that shares nothing with the first.  An incarnation
has

* a **durable** image — its bytes at its last completed barrier
  (``fsync``/``fdatasync`` of its name, or ``sync``); empty for a file
  created since;
* the **pending** ops since then — writes and truncates that *may*
  survive a crash (journal timers, write-back, DAX file systems persist
  eagerly) but never must.

A path has a durable binding (the incarnation it named at the last
barrier that covered it, or none) and, once an op touches it, the list
of every binding it has had since: a crash may leave it bound to any of
them.  ``fsync`` makes its path's binding durable, and the path's
ancestor directories; ``sync`` makes everything durable.

After a crash and remount, :meth:`check` decides admissibility:

* a path whose every possible binding names a file must exist; a path
  that is bound to nothing in every case must not (no resurrection, no
  unknown names);
* a recovered file must be admissible as one of its path's possible
  incarnations: its size reachable by applying a subsequence of the
  incarnation's pending size-changing ops to the durable size, and every
  byte from the durable image (zero beyond it) or from a pending write
  covering that offset — garbage fails;
* pending writes are atomic at 64 B *fragment* granularity: within each
  64 B-aligned fragment of a pending write (excluding bytes overwritten
  by later pending writes), the bytes are either all from that write or
  none of them — a half-applied fragment is a torn write.  Workloads
  that keep unsynced writes inside one 64 B cacheline therefore get
  whole-op atomicity: unsynced data is absent or fully present, never
  torn;
* a file a barrier made durable under some name, that no pending
  unlink or rename-over may have dropped, survives under one of the
  names it may have (a rename must not lose both names);
* no two paths name the same inode (a rename must not duplicate the
  file under both names).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: atomicity granule for pending-write fragments (one cacheline)
FRAGMENT = 64


@dataclass
class _Write:
    offset: int
    data: bytes


@dataclass
class _Trunc:
    size: int


@dataclass(eq=False)
class _Incarnation:
    """One file, whatever names it has had."""

    #: image at the last barrier that covered it
    durable: bytes = b""
    #: current visible image
    volatile: bytes = b""
    #: data ops since the durable image (may or may not persist)
    pending: List[object] = field(default_factory=list)
    #: a barrier made one of its names durable
    linked: bool = False
    #: a pending unlink or rename-over may have dropped its last name
    may_vanish: bool = False


@dataclass
class _DirRec:
    durable: bool = False
    volatile: bool = False
    pending_create: bool = False


class OracleFS:
    """In-memory reference file system with durable-prefix tracking."""

    def __init__(self) -> None:
        #: visible bindings
        self._names: Dict[str, _Incarnation] = {}
        #: bindings at the last barrier that covered each path
        self._durable: Dict[str, _Incarnation] = {}
        #: every binding (None = no file) a path has had since then
        self._since: Dict[str, List[Optional[_Incarnation]]] = {}
        #: every file path ever named, in first-seen order
        self._paths: Dict[str, None] = {}
        self._dirs: Dict[str, _DirRec] = {
            "/": _DirRec(durable=True, volatile=True)
        }

    # ------------------------------------------------------------------ #
    # visible (volatile) state — the reference a live fs must equal
    # ------------------------------------------------------------------ #

    @property
    def files(self) -> Dict[str, bytes]:
        return {p: f.volatile for p, f in self._names.items()}

    @property
    def dirs(self) -> Set[str]:
        return {p for p, r in self._dirs.items() if r.volatile}

    def content(self, path: str) -> Optional[bytes]:
        f = self._names.get(path)
        return f.volatile if f is not None else None

    # ------------------------------------------------------------------ #
    # op observation
    # ------------------------------------------------------------------ #

    def observe(self, op: Tuple, completed: bool = True) -> None:
        """Record one workload op.

        ``completed=False`` marks the op in flight when the crash fired:
        its effects are *possible* (recorded as pending) but its
        completion guarantees (fsync durability, visible state) are not.
        """
        kind = op[0]
        handler = getattr(self, f"_op_{kind}")
        handler(op, completed)

    def _candidates(self, path: str) -> List[Optional[_Incarnation]]:
        since = self._since.get(path)
        return since if since is not None else [self._durable.get(path)]

    def _bind(self, path: str, f: Optional[_Incarnation]) -> None:
        """A crash may now leave ``path`` bound to ``f``."""
        self._paths.setdefault(path, None)
        since = self._since.setdefault(path, [self._durable.get(path)])
        if f not in since:
            since.append(f)

    def _op_create(self, op: Tuple, completed: bool) -> None:
        _, path = op
        if path in self._names:
            return  # open(O_CREAT) on an existing file: no-op
        f = _Incarnation()
        self._bind(path, f)
        if completed:
            self._names[path] = f

    def _op_mkdir(self, op: Tuple, completed: bool) -> None:
        _, path = op
        rec = self._dirs.setdefault(path, _DirRec())
        if completed:
            rec.volatile = True
        if not rec.durable:
            rec.pending_create = True

    def _op_write(self, op: Tuple, completed: bool) -> None:
        _, path, offset, data = op
        f = self._names[path]
        f.pending.append(_Write(offset, bytes(data)))
        if completed:
            cur = f.volatile
            if len(cur) < offset:
                cur = cur + bytes(offset - len(cur))
            f.volatile = cur[:offset] + data + cur[offset + len(data):]

    def _op_trunc(self, op: Tuple, completed: bool) -> None:
        _, path, size = op
        f = self._names[path]
        f.pending.append(_Trunc(size))
        if completed:
            cur = f.volatile
            f.volatile = (
                cur[:size] if size <= len(cur) else cur + bytes(size - len(cur))
            )

    def _op_unlink(self, op: Tuple, completed: bool) -> None:
        _, path = op
        self._names[path].may_vanish = True
        self._bind(path, None)
        if completed:
            del self._names[path]

    def _op_rename(self, op: Tuple, completed: bool) -> None:
        _, src, dst = op
        if src == dst:
            return  # POSIX: renaming a file onto itself does nothing
        f = self._names[src]
        replaced = self._names.get(dst)
        if replaced is not None:
            replaced.may_vanish = True
        self._bind(src, None)
        self._bind(dst, f)
        if completed:
            self._names[dst] = self._names.pop(src)

    def _op_fsync(self, op: Tuple, completed: bool) -> None:
        _, path = op
        if not completed:
            return  # durability not guaranteed: everything stays pending
        f = self._names.get(path)
        if f is None:
            raise ValueError(f"fsync of unlinked path {path!r}")
        f.durable = f.volatile
        f.pending = []
        f.linked = True
        self._durable[path] = f
        self._since.pop(path, None)
        parts = [p for p in path.split("/") if p]
        cur = ""
        for name in parts[:-1]:
            cur = f"{cur}/{name}"
            rec = self._dirs.setdefault(cur, _DirRec(volatile=True))
            rec.durable = True
            rec.pending_create = False

    _op_fdatasync = _op_fsync

    def _op_sync(self, op: Tuple, completed: bool) -> None:
        if not completed:
            return
        for f in self._names.values():
            f.durable = f.volatile
            f.pending = []
            f.linked = True
            f.may_vanish = False
        self._durable = dict(self._names)
        self._since = {}
        for rec in self._dirs.values():
            rec.durable = rec.volatile
            rec.pending_create = False

    # ------------------------------------------------------------------ #
    # post-recovery admissibility check
    # ------------------------------------------------------------------ #

    def check(self, fs) -> List[str]:
        """Check a recovered file system; return a list of violations."""
        errors: List[str] = []
        try:
            self._check_dirs(fs, errors)
            found = self._check_files(fs, errors)
            self._check_renames(found, errors)
            self._check_unknown(fs, errors)
        except Exception as exc:  # recovered FS must at least be readable
            errors.append(f"recovered fs raised while checking: {exc!r}")
        return errors

    def _check_dirs(self, fs, errors: List[str]) -> None:
        for path, rec in self._dirs.items():
            if path == "/":
                continue
            exists = fs.exists(path)
            if rec.durable and not exists:
                errors.append(f"durable directory {path} lost")
            elif exists and not (rec.durable or rec.pending_create):
                errors.append(f"directory {path} resurrected")

    def _check_files(
        self, fs, errors: List[str]
    ) -> Dict[str, Optional[Tuple[int, List[_Incarnation]]]]:
        """Judge every path ever named.  Returns, per path, None if it
        was missing when it had to exist, else — when it exists — its
        inode number and the incarnations its bytes are admissible as."""
        from repro.fs.vfs import O_RDONLY

        found: Dict[str, Optional[Tuple[int, List[_Incarnation]]]] = {}
        for path in self._paths:
            cands = self._candidates(path)
            if not fs.exists(path):
                if None not in cands:
                    errors.append(f"durable file {path} lost")
                    found[path] = None
                continue
            if cands == [None]:
                errors.append(f"file {path} resurrected")
                continue
            st = fs.stat(path)
            fd = fs.open(path, O_RDONLY)
            content = fs.pread(fd, 0, st.size + 1)
            fs.close(fd)
            if len(content) != st.size:
                errors.append(
                    f"{path}: stat size {st.size} != readable bytes "
                    f"{len(content)}"
                )
            verdicts = [
                (f, self._content_errors(path, f, content))
                for f in cands
                if f is not None
            ]
            admits = [f for f, bad in verdicts if not bad]
            if not admits:
                errors.extend(verdicts[-1][1])
            found[path] = (st.ino, admits)
        return found

    # ---- content admissibility ---------------------------------------- #

    def _content_errors(
        self, path: str, f: _Incarnation, content: bytes
    ) -> List[str]:
        errors: List[str] = []
        durable = f.durable
        sizes = self._achievable_sizes(len(durable), f.pending)
        if len(content) not in sizes:
            errors.append(
                f"{path}: recovered size {len(content)} not reachable "
                f"from durable size {len(durable)} via pending ops "
                f"(admissible: {sorted(sizes)})"
            )
        writes = [op for op in f.pending if isinstance(op, _Write)]
        n = len(content)
        base = durable[:n] + bytes(max(0, n - len(durable)))
        # A pending shrink zeroes the file's tail in the page cache, and
        # the zeroed page can reach the device before the size update
        # commits — zeros past the smallest pending truncate size are
        # therefore admissible whatever the recovered size says.
        trunc_floor = min(
            (op.size for op in f.pending if isinstance(op, _Trunc)),
            default=None,
        )
        # 1. every byte must have a source: durable image or a pending
        #    write covering it ("fsynced data intact" is the special case
        #    of offsets no pending write touches).
        unexplained = [i for i in range(n) if content[i] != base[i]]
        if unexplained:
            pend = set()
            for w in writes:
                lo, hi = w.offset, min(w.offset + len(w.data), n)
                for i in range(max(lo, 0), hi):
                    if content[i] == w.data[i - w.offset]:
                        pend.add(i)
            if trunc_floor is not None:
                for i in unexplained:
                    if i >= trunc_floor and content[i] == 0:
                        pend.add(i)
            bad = [i for i in unexplained if i not in pend]
            if bad:
                errors.append(
                    f"{path}: byte(s) at {bad[:8]} match neither the "
                    f"durable image nor any pending write"
                )
        # 2. fragment atomicity of each pending write.
        for wi, w in enumerate(writes):
            later = writes[wi + 1:]
            torn = self._torn_fragments(w, later, base, content, trunc_floor)
            if torn:
                errors.append(
                    f"{path}: pending write @{w.offset}+{len(w.data)} "
                    f"torn inside 64 B fragment(s) {torn[:4]}"
                )
        return errors

    @staticmethod
    def _achievable_sizes(base: int, pending: List[object]) -> Set[int]:
        """Sizes reachable by applying any subsequence of pending ops."""
        frontier = {base}
        for op in pending:
            nxt = set(frontier)
            for s in sorted(frontier):
                if isinstance(op, _Write):
                    nxt.add(max(s, op.offset + len(op.data)))
                else:
                    nxt.add(op.size)
            frontier = nxt
        return frontier

    @staticmethod
    def _torn_fragments(
        w: _Write,
        later: List[_Write],
        base: bytes,
        content: bytes,
        trunc_floor: Optional[int] = None,
    ) -> List[int]:
        """64 B-aligned fragments of ``w`` that are half-applied.

        A fragment is torn when at least one byte is unambiguously from
        ``w`` (matches the write, differs from the durable base) and at
        least one byte is unambiguously not (differs from the write).
        Bytes overwritten by later pending writes — or zeroed past a
        pending truncate size — are excluded.
        """
        n = len(content)
        lo, hi = w.offset, min(w.offset + len(w.data), n)
        if lo >= hi:
            return []
        shadow = bytearray(hi - lo)
        for lw in later:
            s = max(lo, lw.offset)
            e = min(hi, lw.offset + len(lw.data))
            for i in range(s, e):
                shadow[i - lo] = 1
        if trunc_floor is not None:
            for i in range(max(lo, trunc_floor), hi):
                if content[i] == 0:
                    shadow[i - lo] = 1
        torn: List[int] = []
        frag = (lo // FRAGMENT) * FRAGMENT
        while frag < hi:
            s, e = max(frag, lo), min(frag + FRAGMENT, hi)
            surely_w = False
            surely_not = False
            for i in range(s, e):
                if shadow[i - lo]:
                    continue
                is_w = content[i] == w.data[i - w.offset]
                if is_w and content[i] != base[i]:
                    surely_w = True
                elif not is_w:
                    surely_not = True
            if surely_w and surely_not:
                torn.append(frag)
            frag += FRAGMENT
        return torn

    # ---- namespace cross-checks --------------------------------------- #

    def _check_renames(
        self,
        found: Dict[str, Optional[Tuple[int, List[_Incarnation]]]],
        errors: List[str],
    ) -> None:
        by_ino: Dict[int, str] = {}
        for path, seen in found.items():
            if seen is None:
                continue
            other = by_ino.setdefault(seen[0], path)
            if other != path:
                errors.append(
                    f"rename: file duplicated under both names {other} "
                    f"and {path} (inode {seen[0]})"
                )
        names: Dict[_Incarnation, List[str]] = {}
        for path in self._paths:
            for f in self._candidates(path):
                if f is not None:
                    names.setdefault(f, []).append(path)
        for f, paths in names.items():
            if not f.linked or f.may_vanish:
                continue
            seen = [found.get(p, (0, [])) for p in paths]
            if None in seen or any(f in s[1] for s in seen if s):
                continue  # found, or reported lost under its durable name
            errors.append(
                f"rename {paths[0]} -> {paths[-1]}: file lost under every "
                f"name"
            )

    def _check_unknown(self, fs, errors: List[str]) -> None:
        """No paths the workload never created may appear."""
        stack = ["/"]
        while stack:
            d = stack.pop()
            for name in fs.listdir(d):
                child = f"{d.rstrip('/')}/{name}"
                if fs.stat(child).is_dir:
                    if child not in self._dirs:
                        errors.append(f"unknown directory {child} appeared")
                    else:
                        stack.append(child)
                elif child not in self._paths:
                    errors.append(f"unknown file {child} appeared")
