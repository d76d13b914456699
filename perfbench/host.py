"""Host context recorded in every document, and the two calibrations.

``host.calib_mops`` is a pinned pure-Python + numpy micro-loop, run once
per invocation (~0.3 s).  It says how fast this host runs the kind of
code the simulator is made of, so numbers taken on different hosts can
be read side by side; it is context, not a gate.

:class:`SpeedMeter` is the calibration *inside* every sample.  On a
shared box the same deterministic run takes 2.0 s or 3.0 s depending on
what the neighbours do, in patches tens of seconds long, so no statistic
over a few samples of wall time holds a 10 % bound.  A thread runs a
pinned ~0.4 ms pure-Python chunk every 20 ms for the life of the sample;
the chunk's mean time over a window says how fast the host was *during
that window*, and wall seconds times ``REF_CHUNK_S / mean chunk`` are
"calibrated seconds": what the window would have taken on the reference
box at full speed.  Measured here on ``fileserver_bulk``: the quartiles
of 24 samples are 10.9 % apart in wall seconds and 1.4 % apart in
calibrated seconds.  The chunks' own time is taken out of every wall
time reported.
"""

from __future__ import annotations

import os
import platform
import subprocess
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import REPO_ROOT

#: iterations of the meter's chunk, and what one chunk takes on the
#: reference box (2-core Xeon 2.1 GHz VM, CPython 3.11) at full speed
CHUNK_ITERS = 5000
REF_CHUNK_S = 0.00040
METER_INTERVAL_S = 0.02


def now() -> float:
    """Monotonic seconds since boot: comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _chunk() -> int:
    acc = 0
    table: Dict[int, int] = {}
    for i in range(CHUNK_ITERS):
        acc += (i * i) % 7
        table[i & 1023] = acc
    return acc


class SpeedMeter(threading.Thread):
    """Times one chunk every ``METER_INTERVAL_S`` until stopped."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        #: (clock at chunk end, seconds the chunk took)
        self.chunks: List[Tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(METER_INTERVAL_S):
            t0 = now()
            _chunk()
            t1 = now()
            self.chunks.append((t1, t1 - t0))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def window(self, t_from: float, t_to: float) -> Tuple[float, float]:
        """(seconds spent in chunks, speed ratio) of a window.

        The speed ratio is ``REF_CHUNK_S`` over the mean chunk time: 1.0
        is the reference box at full speed, 0.7 a host running the
        simulator's kind of code at 70 % of that.  A window too short to
        hold a chunk takes the ratio of the whole sample.
        """
        inside = [d for t, d in self.chunks if t_from <= t <= t_to]
        spent = sum(inside)
        if not inside:
            inside = [d for _t, d in self.chunks]
        if not inside:
            return 0.0, 1.0
        return spent, REF_CHUNK_S / (sum(inside) / len(inside))


_PY_ITERS = 150_000
_NP_ROUNDS = 24
_NP_SIZE = 1 << 16


def calib_mops() -> float:
    """Millions of loop steps + numpy element operations per second,
    best of three rounds."""
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(_PY_ITERS):
            acc += (i * i) % 7
            table[i & 1023] = acc
        arr = np.arange(_NP_SIZE, dtype=np.int64)
        for _r in range(_NP_ROUNDS):
            arr = (arr * 3 + 1) % 65521
        acc += int(arr.sum())
        best = min(best, time.perf_counter() - t0)
    return (_PY_ITERS + _NP_ROUNDS * _NP_SIZE) / best / 1e6


def git_commit() -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context(seed: int, reps: int, scale: str) -> Dict:
    import numpy

    return {
        "host.calib_mops": calib_mops(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "reps": reps,
        "scale": scale,
        "hygiene": "each sample is a fresh process pinned to one CPU "
                   "(not serve_32x4_w2) with a SpeedMeter thread; "
                   "gc.collect() then gc.disable() around the measured "
                   "region (run) or the serve_cluster call (serve)",
    }
