"""Firmware building blocks for the simulated M-SSD."""

from repro.ssd.firmware.log_index import ChunkEntry, LogIndex
from repro.ssd.firmware.write_log import LogRegion, LogFullError
from repro.ssd.firmware.txlog import TxLog

__all__ = [
    "ChunkEntry",
    "LogIndex",
    "LogRegion",
    "LogFullError",
    "TxLog",
]
