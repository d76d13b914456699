"""Workload generators reproducing the paper's Table 5.

Scaled-down versions (file counts divided by ~1000, sizes preserved or
modestly reduced) of:

* micro-benchmarks: create / delete / mkdir / rmdir;
* Filebench personalities: Varmail, Fileserver, Webproxy, Webserver, OLTP;
* YCSB A-F over the LSM KV store, with Zipfian/latest/uniform request
  distributions.

The micro and Filebench workloads load with the package.  ``YCSB``,
``YCSB_MIXES`` and ``ZipfianGenerator`` load on first use, so a run that
builds no YCSB workload never compiles the KV store behind it
(:mod:`repro.kv`).
"""

from repro._lazy import lazy_exports
from repro.workloads.base import Workload
from repro.workloads.micro import (
    MicroCreate,
    MicroDelete,
    MicroMkdir,
    MicroRmdir,
    MmapStress,
    MICRO_WORKLOADS,
)
from repro.workloads.filebench import (
    Varmail,
    Fileserver,
    Webproxy,
    Webserver,
    OLTP,
    MACRO_WORKLOADS,
)

__getattr__ = lazy_exports(globals(), {
    "repro.workloads.ycsb": ("YCSB", "YCSB_MIXES"),
    "repro.workloads.zipfian": ("ZipfianGenerator",),
})

__all__ = [
    "Workload",
    "MicroCreate",
    "MicroDelete",
    "MicroMkdir",
    "MicroRmdir",
    "MmapStress",
    "MICRO_WORKLOADS",
    "Varmail",
    "Fileserver",
    "Webproxy",
    "Webserver",
    "OLTP",
    "MACRO_WORKLOADS",
    "YCSB",
    "YCSB_MIXES",
    "ZipfianGenerator",
]
