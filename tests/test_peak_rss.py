"""Peak RSS follows the live set, not the run length.

Each case runs the same workload at 1x and at 9x the ops, each in a
fresh process, and bounds the peak resident set of the long run by a
factor of the short one's: memory must track what a run keeps live
(files, cached pages, queued requests), not how many ops it has done,
how many of its reads hit, or how many bytes it has written.

Two structures behind those bounds are sized here with ``tracemalloc``:
the FTL's page map (4 B a slot, like a drive's L2P table in DRAM) and
the page-cache tables of a file whose pages were all evicted (none).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.ftl.mapping import PageMap
from repro.host.page_cache import PageCache
from repro.nand.geometry import FlashGeometry

SRC = Path(__file__).resolve().parent.parent / "src"

#: name -> (child body, with the op count as ``N``; short and long op
#: counts; the bound on long / short peak RSS)
CASES = {
    # 8 tenants over 2 devices: live set = the tenants' files and queues
    "serve": ("""
import contextlib, io
from repro.cli import main
argv = "serve --tenants 8 --devices 2 --ops".split() + [str(N)]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(argv) == 0
""", 600, 5400, 1.5),
    # files that fit the host page cache: every read a hit holds what
    # it held at 1x
    "webserver-hits": ("""
from repro.bench.harness import run_workload
from repro.workloads import Webserver
run_workload(
    "bytefs", Webserver(n_files=32, file_size=64 << 10, ops_per_thread=N),
    page_cache_pages=2048,
)
""", 20, 180, 1.25),
    # perfbench's 512 MB geometry, pages of one repeated byte: one image
    # per fill, whatever was written; 4 B of map per page, and no table
    # left in a file whose pages were all evicted (the long run's peak
    # is the short run's: 31.4 MB on CPython 3.11, x86-64; 1.21x that
    # while the forward map was a dict and emptied tables stayed)
    "fileserver-512mb": ("""
from repro.bench.harness import run_workload
from repro.nand.geometry import FlashGeometry
from repro.workloads import Fileserver
run_workload(
    "bytefs", Fileserver(ops_per_thread=N),
    geometry=FlashGeometry(8, 1, 256, 64, 4096),
)
""", 15, 135, 1.1),
}

#: perfbench's ``fileserver_bulk`` device (512 MB)
GEOMETRY_512MB = FlashGeometry(8, 1, 256, 64, 4096)


def peak_kb(body: str, n_ops: int) -> int:
    """Peak RSS (KB) of a fresh interpreter running ``body``."""
    code = (f"N = {n_ops}\n{body}\nimport resource\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return int(out.split()[-1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_peak_rss_follows_the_live_set(name):
    body, short, long, bound = CASES[name]
    peaks = [peak_kb(body, n) for n in (short, long)]
    assert peaks[1] < bound * peaks[0], (
        f"{name}: peak KB at {short} / {long} ops: {peaks}"
    )


def test_a_page_map_holds_four_bytes_a_slot():
    # fileserver_bulk maps about 56 k pages of the 512 MB device; two
    # 131 072-slot int32 arrays are 1 MB, and binding adds nothing.
    n = GEOMETRY_512MB.total_pages
    gc.collect()
    tracemalloc.start()
    try:
        pm = PageMap(n)
        for lpa in range(56_000):
            pm.bind(lpa, (lpa * 7) % n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pm) == 56_000
    assert held < 1.2e6, f"{held} B for {len(pm)} mapped pages"


def test_an_evicted_file_holds_no_page_table():
    # 2 000 files through an 8-page cache: each file's pages are evicted
    # by the next file's, as clean victims (a read fill's own frame) or
    # as dirty ones (a write-back batch).  Swapping each emptied dict
    # for a new one frees exactly the table the old one still held.
    def writeback(batch):
        for _ino, _index, page in batch:
            page.clean()

    gc.collect()
    tracemalloc.start()
    try:
        pc = PageCache(8, 64)
        for ino in range(2001):
            if ino % 2:
                for index in range(8):
                    pc.install(ino, index, b"r", writeback)
            else:
                pc.install_dirty_run(ino, 0, bytes(8 * 64), 0, False,
                                     writeback)
        emptied = [space for space in pc._spaces.values()
                   if not space.pages]
        held = tracemalloc.get_traced_memory()[0]
        for space in emptied:
            space.pages, space.dirty = {}, {}
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(emptied) == 2000
    assert freed <= 64 * 2 * len(emptied), (
        f"{freed} B of tables in {2 * len(emptied)} emptied dicts"
    )
