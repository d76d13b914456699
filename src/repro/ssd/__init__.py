"""The memory-semantic SSD: dual byte/block interface plus firmware.

Two firmware variants are provided (paper §4.3 and §5.1):

* :class:`~repro.ssd.firmware.bytefs_fw.ByteFSFirmware` — the paper's
  contribution: SSD DRAM managed as a log-structured write log with a
  three-layer index, Algorithm-1 log cleaning, TxLog-backed
  transactions, and coordinated caching (no device page cache).
* :class:`~repro.ssd.firmware.baseline_fw.BaselineFirmware` — an
  unmodified M-SSD with a page-granular battery-backed DRAM cache, which
  is what Ext4/F2FS/NOVA/PMFS run on in the evaluation.

The device loads on first use, so host code that imports only a
firmware's config (:mod:`repro.ssd.firmware.config`) loads no device.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.ssd.device": ("MSSD", "MSSDConfig", "build_mssd"),
})

__all__ = ["MSSD", "MSSDConfig", "build_mssd"]
