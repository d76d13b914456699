"""Layer-boundary spans: one declaration per boundary method.

A :class:`Probe` names a method by module and class string (this module
imports no layer when it loads) and the span each call opens: ``attrs``
takes the call's arguments, ``self`` included, and returns the span's
attributes or ``None`` for no span; ``attrs=None`` spans every call.

:func:`bound` wraps the declared methods on their classes and restores
the plain functions on exit.  Bind *before* the stack is built:
``MSSD``, ``FTL`` and ``HostLink`` hoist bound methods in ``__init__``.
An untraced stack is built outside it and runs the plain methods.
Spans that do not cover a whole call stay inline in their layer (see
:mod:`repro.trace.tracer`).
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.trace import tracer as _tracer


class Probe(NamedTuple):
    module: str
    cls: str
    method: str
    layer: str
    op: str
    #: the call's arguments -> span attributes, or None for no span
    attrs: Optional[Callable[..., Optional[Dict]]]


#: every public syscall of the VFS: one ``vfs`` span named after it
_SYSCALLS = (
    "open", "close", "pread", "pwrite", "fsync", "fdatasync", "sync",
    "ftruncate", "mkdir", "rmdir", "unlink", "rename", "stat", "listdir",
)

_LINK = ("repro.interconnect.link", "HostLink")
_MSSD = ("repro.ssd.device", "MSSD")
_BYTEFS_FW = ("repro.ssd.firmware.bytefs_fw", "ByteFSFirmware")
_BASELINE_FW = ("repro.ssd.firmware.baseline_fw", "BaselineFirmware")
_DEVCACHE = ("repro.devcache.cache", "DeviceCache")
_FTL = ("repro.ftl.ftl", "FTL")
_JBD2 = ("repro.fs.jbd2", "JBD2")


def _firmware(where: Tuple[str, str]) -> Tuple[Probe, ...]:
    """The boundary methods both firmware variants share."""
    return (
        Probe(*where, "byte_read", "firmware", "byte_read",
              lambda self, lpa, offset, length: {"lpa": lpa}),
        Probe(*where, "block_read", "firmware", "block_read",
              lambda self, lpa: {"n_pages": 1}),
        Probe(*where, "block_read_many", "firmware", "block_read",
              lambda self, lpas: {"n_pages": len(lpas)}),
        # n_pages > 1 is one multi-page command; a run of single-page
        # commands is spanned page by page inside the pull loop
        Probe(*where, "block_write_many", "firmware", "block_write",
              lambda self, pages, kind, n_pages=1:
              {"n_pages": n_pages} if n_pages > 1 else None),
        Probe(*where, "recover", "firmware", "recover", None),
    )


PROBES: Tuple[Probe, ...] = (
    *(Probe("repro.fs.vfs", "BaseFileSystem", name, "vfs", name, None)
      for name in _SYSCALLS),
    Probe(*_JBD2, "commit", "journal", "commit",
          lambda self: {"n_blocks": len(self.running) + len(self.running_data)}
          if self.running or self.running_data else None),
    Probe(*_JBD2, "checkpoint", "journal", "checkpoint",
          lambda self: {"n_blocks": len(self.pending)}
          if self.pending else None),
    Probe(*_JBD2, "replay", "journal", "replay", None),
    Probe(*_LINK, "mmio_read", "link", "mmio_read",
          lambda self, nbytes: {"nbytes": nbytes}),
    Probe(*_LINK, "mmio_write", "link", "mmio_write",
          lambda self, nbytes: {"nbytes": nbytes}),
    Probe(*_LINK, "persist_barrier", "link", "persist_barrier",
          lambda self, nlines=1: {"nlines": nlines}),
    Probe(*_LINK, "dma", "link", "dma",
          lambda self, nbytes, write: {"nbytes": nbytes, "write": write}),
    Probe(*_MSSD, "load", "device", "load",
          lambda self, addr, length, kind:
          {"nbytes": length, "kind": kind.value} if length > 0 else None),
    Probe(*_MSSD, "store", "device", "store",
          lambda self, addr, data, kind, txid=None, persist=None: {
              "nbytes": len(data), "kind": kind.value,
              "persist": txid is None if persist is None else persist,
          } if data else None),
    Probe(*_MSSD, "read_blocks", "device", "read_blocks",
          lambda self, lba, n_blocks, kind: {
              "nbytes": n_blocks * self.page_size, "kind": kind.value,
          } if n_blocks > 0 else None),
    Probe(*_MSSD, "write_blocks", "device", "write_blocks",
          lambda self, lba, data, kind:
          {"nbytes": len(data), "kind": kind.value}),
    # the same command handed its pages unjoined: the same span
    Probe(*_MSSD, "write_block_run", "device", "write_blocks",
          lambda self, lba, pages, kind:
          {"nbytes": len(pages) * self.page_size, "kind": kind.value}),
    Probe(*_MSSD, "commit", "device", "commit",
          lambda self, txid: {"txid": txid}),
    *_firmware(_BYTEFS_FW),
    Probe(*_BYTEFS_FW, "byte_write", "firmware", "byte_write",
          lambda self, lpa, offset, data, txid=None:
          {"lpa": lpa, "nbytes": len(data)} if data else None),
    Probe(*_BYTEFS_FW, "commit", "firmware", "txlog_commit",
          lambda self, txid: {"txid": txid}),
    Probe(*_BYTEFS_FW, "_clean_region", "firmware", "log_clean",
          lambda self, idx: {"region": idx}),
    *_firmware(_BASELINE_FW),
    Probe(*_BASELINE_FW, "byte_write", "firmware", "byte_write",
          lambda self, lpa, offset, data, txid=None:
          {"lpa": lpa, "nbytes": len(data)}),
    # a device-DRAM hit is a devcache span with no ftl child; a miss and
    # the prefetches it triggers nest their flash reads under it.  Writes
    # are pulled page by page through the layers above, so each page is
    # spanned inside the pull loop of ``write_pages``
    Probe(*_DEVCACHE, "read_page", "devcache", "read_page",
          lambda self, lpa, kind=None, background=False, as_run=False:
          {"lpa": lpa}),
    Probe(*_DEVCACHE, "read_pages", "devcache", "read_pages",
          lambda self, lpas, kind=None, background=False:
          {"n_pages": len(lpas)}),
    Probe(*_DEVCACHE, "drain_write_buffer", "devcache", "drain", None),
    # a one-page read command (NVMe read, prefetch) is the run of one it
    # is, so one histogram holds every command read: two probes, one
    # span per call
    Probe(*_FTL, "read_page", "ftl", "read_page",
          lambda self, lpa, kind=None, background=False, as_run=False:
          None if as_run else {"lpa": lpa}),
    Probe(*_FTL, "read_page", "ftl", "read_pages",
          lambda self, lpa, kind=None, background=False, as_run=False:
          {"n_pages": 1} if as_run else None),
    Probe(*_FTL, "read_pages", "ftl", "read_pages",
          lambda self, lpas, kind=None, background=False:
          {"n_pages": len(lpas)}),
    Probe(*_FTL, "_collect_block", "ftl", "gc",
          lambda self, ch, victim: {"ch": ch, "block": victim.block_id}),
)


def _spanned(plain: Callable, probe: Probe) -> Callable:
    layer, op, attrs_of = probe.layer, probe.op, probe.attrs

    def spanned(*args, **kwargs):
        tracer = _tracer._ACTIVE
        if tracer is None:
            return plain(*args, **kwargs)
        attrs = {} if attrs_of is None else attrs_of(*args, **kwargs)
        if attrs is None:
            return plain(*args, **kwargs)
        span = tracer.begin(layer, op, **attrs)
        try:
            return plain(*args, **kwargs)
        finally:
            tracer.end(span)

    return functools.update_wrapper(spanned, plain)


@contextmanager
def bound():
    """Every declared method spanned for the duration of the block."""
    held: List[Tuple[type, str, Callable]] = []
    try:
        for probe in PROBES:
            cls = getattr(importlib.import_module(probe.module), probe.cls)
            plain = vars(cls)[probe.method]
            held.append((cls, probe.method, plain))
            setattr(cls, probe.method, _spanned(plain, probe))
        yield
    finally:
        # reversed: a method with two probes got its second wrapper last
        for cls, name, plain in reversed(held):
            setattr(cls, name, plain)
