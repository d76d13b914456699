"""ByteFS — the paper's primary contribution.

:class:`ByteFS` is the host half of the software/hardware co-design: an
Ext4-derived file system (the paper modified Ext4, §4.9) that

* persists metadata with byte-granular MMIO stores (64 B inode halves,
  64 B bitmap groups, individual dentries, 16 B extent leaves);
* reads metadata and data with the block interface plus host caching;
* tracks buffered writes with CoW duplicate pages and picks the writeback
  interface by the modified ratio R (< 1/8 → byte interface);
* wraps multi-update operations in transactions carried by the firmware
  write log and committed with ``COMMIT(TxID)``.

Use :func:`build_stack` to construct a matched device + file system pair
for any of the evaluated systems ("bytefs", "bytefs-dual", "bytefs-log",
"ext4", "f2fs", "nova", "pmfs").

The stack loads on first use: host code that only names or checks a
file system imports :mod:`repro.core.config`, and through this package
that loads no file system.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.core.bytefs": ("ByteFS", "ByteFSVariant", "build_stack"),
})

__all__ = ["ByteFS", "ByteFSVariant", "build_stack"]
