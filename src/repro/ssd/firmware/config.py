"""The two firmware variants' tunables, apart from the firmware itself.

:class:`~repro.ssd.device.MSSDConfig` and host code import this module
alone; a device loads the one firmware module it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

#: the write log's entry alignment (64 B data entries, paper Fig 3)
ENTRY_ALIGN = 64


@dataclass(frozen=True)
class ByteFSFirmwareConfig:
    """Firmware tunables (paper defaults: 256 MB log, 85 % threshold,
    16 MB partitions, 2 MB TxLog — scaled down in tests/benches)."""

    log_bytes: int = 4 << 20
    clean_threshold: float = 0.85
    partition_bytes: int = 1 << 20

    #: the smallest ``log_bytes``: the log is two regions (double
    #: buffering) and a region holds at least one entry
    MIN_LOG_BYTES: ClassVar[int] = 2 * ENTRY_ALIGN

    def __post_init__(self) -> None:
        if self.log_bytes < self.MIN_LOG_BYTES:
            raise ValueError(
                f"log_bytes must be >= {self.MIN_LOG_BYTES} "
                f"(got {self.log_bytes})"
            )


@dataclass(frozen=True)
class BaselineFirmwareConfig:
    """Device cache tunables (256 MB in the paper, scaled down)."""

    cache_bytes: int = 4 << 20
    dirty_high_watermark: float = 0.50   # start background flush above this
    dirty_low_watermark: float = 0.25    # flush down to this

    #: the smallest cache the firmware runs with, in pages
    MIN_CACHE_PAGES: ClassVar[int] = 4

    def cache_pages(self, page_size: int) -> int:
        """The cache's capacity in ``page_size`` pages; a ``ValueError``
        below :attr:`MIN_CACHE_PAGES`."""
        pages = self.cache_bytes // page_size
        if pages < self.MIN_CACHE_PAGES:
            raise ValueError(
                "device_cache_bytes must be >= "
                f"{self.MIN_CACHE_PAGES * page_size} "
                f"({self.MIN_CACHE_PAGES} pages; got {self.cache_bytes})"
            )
        return pages
