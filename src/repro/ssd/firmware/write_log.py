"""The log region of the firmware write log (paper §4.3, Fig 3).

The global log region is a circular buffer (256 MB in the paper) holding
64 B-aligned data entries appended at the tail.  For double buffering
(§4.3, "Log Cleaning") the firmware manages two half regions: writes go to
the active one while the other is flushed to flash in the background.

This module tracks space accounting for one region; the data payloads
themselves ride on the :class:`~repro.ssd.firmware.log_index.ChunkEntry`
objects, and the region's :class:`~repro.ssd.firmware.log_index.LogIndex`
maps pages to entries.
"""

from __future__ import annotations

from repro.analysis import fssan
from repro.ssd.firmware.config import ENTRY_ALIGN
from repro.ssd.firmware.log_index import LogIndex


class LogFullError(Exception):
    """Raised when an append cannot fit even after cleaning."""


def aligned_entry_size(length: int) -> int:
    """Size a data entry consumes in the log (64 B aligned, paper Fig 3)."""
    if length <= 0:
        raise ValueError("entry length must be positive")
    return ((length + ENTRY_ALIGN - 1) // ENTRY_ALIGN) * ENTRY_ALIGN


class LogRegion:
    """One half of the double-buffered log: space accounting plus index."""

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int,
        partition_bytes: int,
        address_space_bytes: int,
    ) -> None:
        if capacity_bytes < ENTRY_ALIGN:
            raise ValueError("log region too small")
        self.capacity = capacity_bytes
        self.used = 0
        self.tail = 0  # append cursor (log offsets for ChunkEntry.log_off)
        self.index = LogIndex(address_space_bytes, page_size, partition_bytes)
        # When a background flush of this region completes (simulated ns);
        # 0 means the region is clean/idle.
        self.cleaning_until = 0.0
        self.is_cleaning = False

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def utilization(self) -> float:
        return self.used / self.capacity

    def consume(self, length: int) -> int:
        """Account for an appended entry; return its log offset."""
        size = aligned_entry_size(length)
        if size > self.free:
            raise LogFullError(
                f"entry of {size} B does not fit ({self.free} B free)"
            )
        off = self.tail
        self.tail = (self.tail + size) % self.capacity
        self.used += size
        if fssan.ENABLED:
            fssan.check_log_append(off, size, self.used, self.capacity)
        return off

    def reset(self) -> None:
        self.used = 0
        self.tail = 0
        self.index.clear()
        self.is_cleaning = False
