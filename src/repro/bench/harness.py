"""Run one workload against one file-system stack and collect metrics.

Setup (file-set preparation) is excluded from measurement: statistics are
reset and the measurement epoch recorded after ``workload.setup``.
Threads are interleaved event-driven: the runner always advances the
logical thread whose virtual clock is furthest behind, so device-level
contention (shared flash channels, the PCIe link, the firmware core)
shapes the aggregate throughput exactly as in a real multi-threaded run.

With ``traced=True`` (or ``REPRO_TRACE=1`` in the environment) the
measured loop runs under an activated :class:`repro.trace.Tracer`: each
workload op becomes a root span whose start/end are the exact clock
reads that feed the :class:`LatencyRecorder`, so root span duration and
recorded latency agree to the float bit.  ``REPRO_TRACE`` attaches a
metrics-only tracer (histograms, no span retention) so long CI runs stay
memory-bounded; ``traced=True`` keeps the full span tree on
``RunResult.trace``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.bytefs import build_stack
from repro.devcache import DevCacheConfig
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import SEC
from repro.stats.traffic import (
    Direction,
    Interface,
    LatencyRecorder,
    StructKind,
    TrafficStats,
)
from repro.trace import tracer as trace
from repro.trace.tracer import Tracer
from repro.workloads.base import Workload

#: 256 MB of emulated flash: ample for the scaled-down workloads while
#: keeping Python memory modest (the array holds the images of mapped
#: pages only: resident memory is the live set, not the device size).
DEFAULT_GEOMETRY = FlashGeometry(
    n_channels=8,
    ways_per_channel=1,
    blocks_per_way=128,
    pages_per_block=64,
    page_size=4096,
)


@dataclass
class RunResult:
    """Everything a figure needs from one (fs, workload) run."""

    fs_name: str
    workload: str
    ops: int
    elapsed_s: float
    latency: LatencyRecorder
    meta_write: int
    meta_read: int
    data_write: int
    data_read: int
    byte_write: int
    block_write: int
    flash_read: int
    flash_write: int
    app_write: int
    app_read: int
    counters: Dict[str, int] = field(default_factory=dict)
    #: per-StructKind host<->SSD bytes (Figure 1/8/9 breakdowns)
    write_breakdown: Dict[StructKind, int] = field(default_factory=dict)
    read_breakdown: Dict[StructKind, int] = field(default_factory=dict)
    #: JSON-ready traffic aggregates (TrafficStats.to_json)
    traffic: Dict[str, Dict] = field(default_factory=dict)
    #: the tracer used for the measured loop, when tracing was on
    trace: Optional[Tracer] = None
    #: resolved RNG seed of the workload (set only when the caller asks
    #: for a config echo; absent from JSON otherwise so byte-pinned
    #: golden fixtures are unaffected)
    seed: Optional[int] = None
    #: caller-supplied run-configuration echo (harness knobs, CLI args)
    config: Optional[Dict] = None

    @property
    def throughput(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.ops / self.elapsed_s

    @property
    def host_write(self) -> int:
        return self.meta_write + self.data_write

    @property
    def host_read(self) -> int:
        return self.meta_read + self.data_read

    @property
    def write_amplification(self) -> float:
        return self.host_write / self.app_write if self.app_write else float("nan")

    @property
    def read_amplification(self) -> float:
        return self.host_read / self.app_read if self.app_read else float("nan")

    def to_json(self) -> Dict:
        """A JSON-serialisable summary (``repro run --format=json``)."""

        def _num(x: float) -> Optional[float]:
            return None if isinstance(x, float) and not math.isfinite(x) else x

        doc = {
            "fs": self.fs_name,
            "workload": self.workload,
            "ops": self.ops,
            "elapsed_s": self.elapsed_s,
            "throughput_ops_s": _num(self.throughput),
            "write_amplification": _num(self.write_amplification),
            "read_amplification": _num(self.read_amplification),
            "bytes": {
                "meta_write": self.meta_write,
                "meta_read": self.meta_read,
                "data_write": self.data_write,
                "data_read": self.data_read,
                "byte_write": self.byte_write,
                "block_write": self.block_write,
                "flash_read": self.flash_read,
                "flash_write": self.flash_write,
                "app_write": self.app_write,
                "app_read": self.app_read,
            },
            "write_breakdown": {
                k.value: n for k, n in sorted(
                    self.write_breakdown.items(), key=lambda kv: kv[0].value
                )
            },
            "read_breakdown": {
                k.value: n for k, n in sorted(
                    self.read_breakdown.items(), key=lambda kv: kv[0].value
                )
            },
            "latency": {
                op: {k: _num(v) for k, v in self.latency.summary(op).items()}
                for op in self.latency.ops()
            },
            "traffic": self.traffic,
        }
        # Reproducibility echo: emitted only when the caller opted in, so
        # documents produced without it stay byte-identical (goldens).
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.config is not None:
            doc["config"] = self.config
        return doc


def run_workload(
    fs_name: str,
    workload: Workload,
    geometry: Optional[FlashGeometry] = None,
    timing: Optional[TimingModel] = None,
    log_bytes: int = 1 << 20,
    device_cache_bytes: int = 1 << 20,
    page_cache_pages: int = 512,
    devcache: Optional[DevCacheConfig] = None,
    unmount: bool = False,
    traced: bool = False,
    stack_probe: Optional[Callable] = None,
    config_echo: Optional[Dict] = None,
) -> RunResult:
    """Build a fresh stack, run the workload, and collect metrics.

    The device DRAM defaults (1 MB write log / 1 MB baseline page cache)
    scale the paper's 256 MB SSD DRAM down by the same factor as the
    workloads, so cache/log pressure appears at the same relative point.

    ``traced=True`` records the full span tree of the measured loop on
    ``RunResult.trace``; when the ``REPRO_TRACE`` environment variable is
    set, every run gets a metrics-only tracer instead (histograms only).
    Either way the stack is built and run inside the span seam
    (:func:`repro.trace.tracer.seam`); otherwise it runs the plain
    methods.

    ``stack_probe`` is an observation hook for a wall-clock harness
    (``perfbench/``): it is called as
    ``stack_probe(phase, clock, stats, device, fs)`` with phase
    ``"measure-start"`` at the measurement epoch (right after setup and
    the stats reset) and ``"measure-end"`` right after the measured loop
    drains, bracketing exactly the measured region.  The probe must not
    mutate the stack.

    ``config_echo`` opts the result into the reproducibility echo: the
    dict is attached verbatim as ``RunResult.config`` and the workload's
    resolved RNG seed as ``RunResult.seed``, and both then appear in
    ``to_json()``.  Off by default so existing documents (and the golden
    differential fixtures) are byte-identical.
    """
    with trace.seam(traced or trace.AUTO):
        clock, stats, device, fs = build_stack(
            fs_name,
            geometry=geometry or DEFAULT_GEOMETRY,
            timing=timing,
            n_threads=workload.n_threads,
            log_bytes=log_bytes,
            device_cache_bytes=device_cache_bytes,
            page_cache_pages=page_cache_pages,
            devcache=devcache,
        )
        workload.setup(fs)
        # Measurement epoch: everything before this is free.
        clock.sync_all()
        stats.reset()
        t0 = clock.elapsed_ns
        if stack_probe is not None:
            stack_probe("measure-start", clock, stats, device, fs)
        latency = LatencyRecorder()
        tracer: Optional[Tracer] = None
        if traced:
            tracer = Tracer(clock, keep_spans=True)
        elif trace.AUTO:
            tracer = Tracer(clock, keep_spans=False)
        gens = dict(enumerate(workload.make_threads(fs)))
        ops = 0
        if tracer is not None:
            with trace.activated(tracer):
                ops = _measured_loop(clock, gens, latency, tracer)
            tracer.close_all()
        else:
            ops = _measured_loop(clock, gens, latency, None)
        if stack_probe is not None:
            stack_probe("measure-end", clock, stats, device, fs)
        workload.teardown(fs)
        if unmount:
            fs.unmount()
    elapsed_s = (clock.elapsed_ns - t0) / SEC
    meta_w = stats.metadata_bytes(Direction.WRITE)
    meta_r = stats.metadata_bytes(Direction.READ)
    data_w = stats.data_bytes(Direction.WRITE)
    data_r = stats.data_bytes(Direction.READ)
    return RunResult(
        fs_name=fs_name,
        workload=workload.name,
        ops=ops,
        elapsed_s=elapsed_s,
        latency=latency,
        meta_write=meta_w,
        meta_read=meta_r,
        data_write=data_w,
        data_read=data_r,
        byte_write=stats.host_ssd_bytes(
            direction=Direction.WRITE, interface=Interface.BYTE
        ),
        block_write=stats.host_ssd_bytes(
            direction=Direction.WRITE, interface=Interface.BLOCK
        ),
        flash_read=stats.flash_bytes(direction=Direction.READ),
        flash_write=stats.flash_bytes(direction=Direction.WRITE),
        app_write=stats.app.get(Direction.WRITE, 0),
        app_read=stats.app.get(Direction.READ, 0),
        counters=dict(stats.counters),
        write_breakdown=stats.breakdown(Direction.WRITE),
        read_breakdown=stats.breakdown(Direction.READ),
        traffic=stats.to_json(),
        trace=tracer,
        seed=workload.seed if config_echo is not None else None,
        config=config_echo,
    )


def _measured_loop(clock, gens, latency, tracer: Optional[Tracer]) -> int:
    """Advance the furthest-behind thread until every generator drains.

    When tracing, each op is wrapped in a root span opened and closed at
    the exact same clock reads the latency recorder uses, and named after
    the op the generator reports — so ``root.duration_ns`` equals the
    recorded latency exactly.

    The ready queue is a min-heap of ``(time, tid)``: an op only advances
    the running thread's timeline, so popping the heap top and re-pushing
    the updated entry always selects the furthest-behind thread — with
    ties broken toward the lowest tid, exactly like the linear
    ``min(gens, key=clock.time_of)`` scan this replaces.
    """
    ops = 0
    heap = [(clock.time_of(tid), tid) for tid in gens]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    while heap:
        # Advance the thread that is furthest behind.
        _t, tid = heappop(heap)
        clock.switch(tid)
        t_start = clock.now
        root = tracer.begin("workload", "op") if tracer is not None else None
        try:
            op_name = next(gens[tid])
        except StopIteration:
            if root is not None:
                # The generator's tail (teardown between the last yield
                # and StopIteration) may have traced real work under this
                # root; keep it as an explicit drain span so no child is
                # left with a dangling parent.
                root.op = "drain"
                tracer.end(root)
            del gens[tid]
            continue
        if root is not None:
            root.op = op_name
            tracer.end(root)
        latency.record(op_name, clock.now - t_start)
        ops += 1
        heappush(heap, (clock.now, tid))
    return ops
