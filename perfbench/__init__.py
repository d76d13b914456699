"""perfbench: the repo's reference benchmark.

Seven pinned workloads, two clocks kept apart (host wall time of the
simulator vs. the simulated results the paper reports), and a per-layer
wall-time split taken from outside the stack.  See ``README.md`` here.

* ``python -m perfbench`` -- every workload, every metric, one JSON
  document (``perfbench/out/result.json``).
* ``python -m perfbench --compare A.json B.json`` -- apply each metric's
  bound to two documents.
* ``python3 perfbench/run.py --workload W --seed N --seconds S --trace
  0|1`` -- one workload, for the pipeline that reads ``BENCHMARK.json``.

Everything here lives outside ``src/repro`` and only calls its public
surfaces; run from the repository root (``src`` is put on ``sys.path``
when ``repro`` is not already importable).
"""

from __future__ import annotations

import os
import sys

#: the directory holding ``perfbench/`` and ``src/``
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(REPO_ROOT, "perfbench", "out")

_src = os.path.join(REPO_ROOT, "src")
if os.path.isdir(os.path.join(_src, "repro")) and _src not in sys.path:
    sys.path.insert(0, _src)
