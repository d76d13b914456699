"""Peak RSS follows the live set, not the run length.

Each case runs the same workload at 1x and at 9x the ops, each in a
fresh process, and bounds the peak resident set of the long run by a
factor of the short one's: memory must track what a run keeps live
(files, cached pages, queued requests), not how many ops it has done,
how many of its reads hit, or how many bytes it has written.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # per fill, whatever was written
    "fileserver-512mb": ("""
from repro.bench.harness import run_workload
from repro.nand.geometry import FlashGeometry
from repro.workloads import Fileserver
run_workload(
    "bytefs", Fileserver(ops_per_thread=N),
    geometry=FlashGeometry(8, 1, 256, 64, 4096),
)
""", 15, 135, 1.75),
}


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
