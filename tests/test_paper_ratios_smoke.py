"""Golden-number benchmark regression smoke (tier-1).

A scaled-down Figure-6 slice: four workloads on the 32 MB test geometry,
ByteFS vs. Ext4 vs. F2FS.  The simulation clock is virtual and every
workload is seeded, so throughput ratios are *deterministic* — the bands
below are not statistical noise margins but room for legitimate
performance-model changes.  A drift outside a band means a change moved
the paper-facing numbers; recalibrate the golden value deliberately (and
re-check the full ``benchmarks/`` suite) rather than widening the band.

Golden ratios were measured at this smoke scale (create 150 files,
12/10/8 ops per thread); the full-scale counterparts are the rows of
``fig6_throughput`` in ``benchmarks/paper.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_workload
from repro.workloads import OLTP, MicroCreate, Varmail, Webserver
from tests.conftest import SMALL_GEOMETRY

#: workload -> (bytefs/ext4 golden ratio, relative tolerance)
GOLDEN_B_OVER_E = {
    "create": (4.88, 0.30),
    "varmail": (4.12, 0.30),
    "oltp": (2.83, 0.30),
    "webserver": (1.10, 0.20),
}


def _workloads():
    return {
        "create": MicroCreate(n_files=150),
        "varmail": Varmail(ops_per_thread=12),
        "oltp": OLTP(ops_per_thread=10),
        "webserver": Webserver(ops_per_thread=8),
    }


@pytest.fixture(scope="module")
def throughput():
    tput = {}
    for wl_name, _ in _workloads().items():
        for fs in ("ext4", "f2fs", "bytefs"):
            # fresh workload instance per run: setup mutates state
            wl = _workloads()[wl_name]
            tput[(fs, wl_name)] = run_workload(
                fs, wl, geometry=SMALL_GEOMETRY
            ).throughput
    return tput


@pytest.mark.parametrize("wl_name", sorted(GOLDEN_B_OVER_E))
def test_bytefs_vs_ext4_golden_ratio(throughput, wl_name):
    golden, tol = GOLDEN_B_OVER_E[wl_name]
    ratio = throughput[("bytefs", wl_name)] / throughput[("ext4", wl_name)]
    assert golden * (1 - tol) <= ratio <= golden * (1 + tol), (
        f"{wl_name}: ByteFS/Ext4 throughput ratio {ratio:.3f} drifted "
        f"outside golden {golden} ±{tol:.0%} — a perf-model change moved "
        f"the paper-facing numbers; recalibrate deliberately"
    )


def test_fig6_ordering_preserved(throughput):
    """The paper's qualitative ordering survives at smoke scale."""
    # metadata-heavy: ByteFS > F2FS > Ext4 (paper fig. 6 create/varmail)
    for wl in ("create", "varmail"):
        b = throughput[("bytefs", wl)]
        f = throughput[("f2fs", wl)]
        e = throughput[("ext4", wl)]
        assert b > f > e, (wl, b, f, e)
    # read-heavy webserver: all three within ~25% (host caching dominates)
    ws = [throughput[(fs, "webserver")] for fs in ("ext4", "f2fs", "bytefs")]
    assert max(ws) / min(ws) < 1.25, ws
