"""Host wall time of the write-back diff (§4.6), per 4 KB page.

A pytest-benchmark microbench, not a paper table and not a gate:
``pytest benchmarks/ --benchmark-only``.  The seven perfbench reference
workloads only ever diff the first two kinds of page below
(docs/PERFORMANCE.md, "Fixed costs").
"""

import random

import pytest

from repro.host.page_cache import CACHELINE, dirty_line_indices

#: dirty lines of a 4 KB page against a non-zero duplicate
_PROBE_PAGES = {
    "unchanged": [],
    "rewritten": range(64),
    "1 line": [37],
    "7 scattered lines": [1, 9, 17, 30, 41, 50, 63],
}


@pytest.mark.parametrize("kind", list(_PROBE_PAGES))
def test_sec46_dirty_line_probe(benchmark, kind):
    """Hot-cache host cost of the write-back diff, per page, at the
    default R < 1/8 policy (``limit`` 8 of 64 lines)."""
    old = random.Random(4).randbytes(4096)
    cur = bytearray(old)
    for line in _PROBE_PAGES[kind]:
        cur[line * CACHELINE] ^= 0xFF
    lines = benchmark.pedantic(
        dirty_line_indices, args=(cur, old, 8), rounds=200, iterations=100,
        warmup_rounds=5,
    )
    assert lines == (None if kind == "rewritten" else list(_PROBE_PAGES[kind]))
