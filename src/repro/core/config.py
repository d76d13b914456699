"""Which firmware each evaluated file system runs on, apart from the
stacks themselves.

Host code that names or checks a file system before it builds one (the
CLI's argument parser, ``serve``'s validation) imports this module
alone; :mod:`repro.core.bytefs` builds the stacks.
"""

from __future__ import annotations

from typing import Optional

from repro.nand.geometry import FlashGeometry
from repro.ssd.firmware.config import (
    BaselineFirmwareConfig,
    ByteFSFirmwareConfig,
)

#: Which firmware each evaluated file system runs on (§5.1: baselines run
#: on the M-SSD without firmware changes but with device data caching).
FIRMWARE_FOR = {
    "bytefs": "bytefs",
    "bytefs-log": "bytefs",
    "bytefs-dual": "baseline",
    "ext4": "baseline",
    "f2fs": "baseline",
    "nova": "baseline",
    "pmfs": "baseline",
}


def check_firmware(
    fs_name: str,
    log_bytes: int,
    device_cache_bytes: int,
    geometry: Optional[FlashGeometry] = None,
) -> None:
    """Raise the ``ValueError`` that building the firmware of ``fs_name``
    with these sizes raises, without building anything: callers report
    it before a run starts.  ``geometry`` defaults to the one
    :class:`~repro.ssd.device.MSSDConfig` defaults to."""
    if FIRMWARE_FOR[fs_name] == "bytefs":
        ByteFSFirmwareConfig(log_bytes=log_bytes)
    else:
        BaselineFirmwareConfig(cache_bytes=device_cache_bytes).cache_pages(
            (geometry or FlashGeometry()).page_size
        )
