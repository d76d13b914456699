"""Firmware building blocks for the simulated M-SSD.

Only the two variants' configs load with the package; everything else
loads on first use, so a device compiles the one firmware it builds.
"""

from repro._lazy import lazy_exports
from repro.ssd.firmware.config import (
    BaselineFirmwareConfig,
    ByteFSFirmwareConfig,
)

__getattr__ = lazy_exports(globals(), {
    "repro.ssd.firmware.baseline_fw": ("BaselineFirmware",),
    "repro.ssd.firmware.bytefs_fw": ("ByteFSFirmware",),
    "repro.ssd.firmware.log_index": ("ChunkEntry", "LogIndex"),
    "repro.ssd.firmware.write_log": ("LogRegion", "LogFullError"),
    "repro.ssd.firmware.txlog": ("TxLog",),
})

__all__ = [
    "BaselineFirmware",
    "BaselineFirmwareConfig",
    "ByteFSFirmware",
    "ByteFSFirmwareConfig",
    "ChunkEntry",
    "LogIndex",
    "LogRegion",
    "LogFullError",
    "TxLog",
]
