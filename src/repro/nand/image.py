"""Same-filled page images, held once.

Most pages a workload writes are one byte repeated: the zero page above
all, and the filler the built-in workloads write.  Linux zram stores
such a page as its fill byte; here every layer that keeps a page image
for longer than a call — the host page cache, the device-DRAM
cache frames and the flash array — keeps the one shared ``bytes`` object
for that (byte, length) instead of a copy per page.  Images are
immutable, so sharing one is invisible to every reader.

Outside the device internals LAY001 guards, so host and device code
both call it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

Buffer = Union[bytes, bytearray, memoryview]


@lru_cache(maxsize=1024)
def filled(value: int, size: int) -> bytes:
    """The shared image of ``size`` bytes all equal to ``value`` (at most
    256 per length, one per byte value; four page sizes fit the cache)."""
    return bytes((value,)) * size


def same_filled(data: Buffer) -> Buffer:
    """The shared image equal to ``data`` if every byte of ``data`` is
    the same value, else ``data`` itself.

    A page whose first and last bytes differ is settled by two index
    loads; any other is one ``memcmp`` against the candidate image."""
    if not data:
        return data
    first = data[0]
    if first != data[-1]:
        return data
    image = filled(first, len(data))
    return image if data == image else data


def same_filled_at(data: Buffer, offset: int, size: int) -> Optional[bytes]:
    """The shared image equal to ``data[offset:offset + size]`` if every
    byte of that slice is the same value, else ``None`` — the test of
    :func:`same_filled` without taking the slice first."""
    if size <= 0:
        return None
    first = data[offset]
    if first != data[offset + size - 1]:
        return None
    image = filled(first, size)
    return image if data[offset:offset + size] == image else None
