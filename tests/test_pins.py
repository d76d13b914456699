"""One pin table: every byte-for-byte pin of the repo is a row of ``PINS``.

A row maps a name to a producer that returns ``{artefact: text}``: a run
result document, a trace JSONL or Chrome export, the numbered crash
sites of a counting injector, a serve document, a telemetry series, a
dispatch log, a rendered report, or what a ``repro`` command printed
and wrote.  The expected sha256 of every artefact lives in one file,
``tests/golden/pins.json`` (``{row: {artefact: sha256}}``).  A producer
may also assert what keeps its pin from being vacuous (the log cleans,
the cache evicts, the spans it exists for are there).

Each row is checked by one test: the rows of a subsystem by a test of
its own module (``CHECKED_IN``), every other row by ``test_pin`` here.
An optimisation never changes simulated time, traffic or latency, so a
red row after one means the model changed.  A deliberate model change
adds or edits rows and rewrites the pins with::

    PYTHONPATH=src python -m pytest tests/ --update-golden

and the review reads the diff of ``pins.json`` (which rows moved) next
to the diff of ``benchmarks/results/`` (by how much).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Optional
from unittest import mock

import pytest

from repro.bench.harness import run_workload
from repro.cli import main
from repro.cluster import TenantSpec, default_tenants, serve_cluster
from repro.core.bytefs import build_stack
from repro.devcache import DevCacheConfig
from repro.faults import DeviceCrash
from repro.faults.injector import CrashPoint, FaultInjector, FaultPlan
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.host.mmap import MappedRegion
from repro.nand.geometry import FlashGeometry
from repro.ssd.firmware.bytefs_fw import ByteFSFirmware
from repro.telemetry.series import to_lines
from repro.trace import tracer as trace
from repro.trace.export import to_jsonl
from repro.trace.probes import bound
from repro.trace.tracer import Tracer
from repro.workloads import (
    OLTP,
    Fileserver,
    MicroCreate,
    MicroDelete,
    MicroMkdir,
    MicroRmdir,
    MmapStress,
    Varmail,
    Webproxy,
    Webserver,
)
from tests.conftest import ALL_FS, SMALL_GEOMETRY

GOLDEN_PATH = Path(__file__).parent / "golden" / "pins.json"

P = 4096


# ---------------------------------------------------------------------- #
# producers
# ---------------------------------------------------------------------- #

#: every figure workload at smoke scale (a fresh instance per run:
#: setup mutates workload state)
FIGURE_WORKLOADS = {
    "create": lambda: MicroCreate(n_files=96),
    "delete": lambda: MicroDelete(n_files=72),
    "mkdir": lambda: MicroMkdir(n_dirs=96),
    "rmdir": lambda: MicroRmdir(n_dirs=72),
    "varmail": lambda: Varmail(ops_per_thread=8),
    "fileserver": lambda: Fileserver(ops_per_thread=6),
    "webproxy": lambda: Webproxy(ops_per_thread=6),
    "webserver": lambda: Webserver(ops_per_thread=6),
    "oltp": lambda: OLTP(ops_per_thread=8),
}


def doc(result) -> str:
    """The canonical text of a ``RunResult`` or ``ClusterRunResult``."""
    return json.dumps(result.to_json(), sort_keys=True)


def figure_doc(fs_name: str, wl_name: str) -> str:
    return doc(run_workload(
        fs_name, FIGURE_WORKLOADS[wl_name](), geometry=SMALL_GEOMETRY
    ))


def trace_jsonl(fs_name: str, workload, **kw) -> str:
    """The span-trace JSONL of one traced run (what ``repro trace
    --format jsonl`` writes)."""
    result = run_workload(fs_name, workload, traced=True, **kw)
    return to_jsonl(result.trace, {"fs": fs_name, "workload": workload.name})


def counting_run(fs_name: str, workload, *, log_bytes: int = 1 << 20,
                 page_cache_pages: int = 512, devcache=None):
    """Run ``workload`` under a counting injector from after mkfs through
    unmount; return the sites and the counters the run added."""
    faults = FaultInjector()
    clock, stats, _device, fs = build_stack(
        fs_name, geometry=SMALL_GEOMETRY, n_threads=workload.n_threads,
        faults=faults, log_bytes=log_bytes, device_cache_bytes=1 << 20,
        page_cache_pages=page_cache_pages, devcache=devcache,
    )
    before = dict(stats.counters)
    faults.start_count()
    drive(clock, fs, workload)
    added = {
        key: value - before.get(key, 0)
        for key, value in stats.counters.items()
    }
    return faults.trace, added


def drive(clock, fs, workload) -> None:
    """Set ``workload`` up on ``fs``, run its threads round-robin, one op
    at a time, to the end, and unmount."""
    workload.setup(fs)
    threads = list(enumerate(workload.make_threads(fs)))
    while threads:
        for tid, gen in list(threads):
            clock.switch(tid)
            if next(gen, None) is None:
                threads.remove((tid, gen))
    fs.unmount()


def crash_sites(fs_name: str, workload, **kw) -> str:
    """The numbered crash sites of :func:`counting_run`."""
    sites, _added = counting_run(fs_name, workload, **kw)
    assert len(sites) > 100
    return repr([(s.index, s.label, s.nbytes, s.atom) for s in sites])


def fill_trace(fs_name: str, make_workload, page_cache_pages=None,
               devcache=None) -> Dict[str, str]:
    """The trace of a page-fill case."""
    kw = {"page_cache_pages": page_cache_pages, "devcache": devcache}
    return {"trace": trace_jsonl(
        fs_name, make_workload(), geometry=SMALL_GEOMETRY,
        **{k: v for k, v in kw.items() if v is not None},
    )}


def fill_sites(fs_name: str, make_workload, page_cache_pages=None,
               devcache=None) -> Dict[str, str]:
    """The crash sites of a page-fill case."""
    return {"crash_sites": crash_sites(
        fs_name, make_workload(),
        page_cache_pages=page_cache_pages or 512, devcache=devcache,
    )}


def mmap_stress() -> MmapStress:
    return MmapStress(n_ops=900, n_threads=2, file_pages=48, seed=7)


def mmap_fault_fill() -> Dict[str, str]:
    """mmap faults the firmware serves with no devcache, a 16-page host
    cache that evicts on nearly every fault, and msync write-back
    cleaning pages behind the faults."""
    cleaned, caches = [], []
    msync = MappedRegion.msync

    def counting_msync(region):
        dirty = region.fs.page_cache.dirty_pages
        before = len(dirty(region.ino))
        msync(region)
        cleaned.append(before - len(dirty(region.ino)))

    def keep_cache(_phase, _clock, _stats, _device, fs):
        caches.append(fs.page_cache)

    with mock.patch.object(MappedRegion, "msync", counting_msync):
        result = run_workload(
            "bytefs", mmap_stress(), geometry=SMALL_GEOMETRY,
            page_cache_pages=16, stack_probe=keep_cache,
        )
    assert caches[-1].misses > 16
    assert result.counters["mmap_page_faults"] > 0
    assert sum(cleaned) > 0
    return {"doc": doc(result),
            **fill_trace("bytefs", mmap_stress, page_cache_pages=16),
            **fill_sites("bytefs", mmap_stress, page_cache_pages=16)}


def thrash(policy: str, prefetch: bool = True) -> Dict[str, str]:
    """perfbench's ``devcache_thrash`` at smoke size: an mmap working set
    8x the 128-page host cache and 4x the 1 MB device cache, so every
    policy evicts on nearly every fill, with the stride prefetcher on or
    off."""
    devcache = DevCacheConfig(cache_bytes=1 << 20, policy=policy,
                              prefetch=prefetch)

    def make():
        return MmapStress(n_ops=12000, n_threads=2, file_pages=512, seed=42)

    caches = []

    def keep_cache(_phase, _clock, _stats, device, _fs):
        caches.append(device.devcache)

    result = run_workload("bytefs", make(), geometry=SMALL_GEOMETRY,
                          page_cache_pages=128, devcache=devcache,
                          stack_probe=keep_cache)
    gauges = caches[-1].gauges()
    assert gauges["devcache_evictions_clean"] > 1000
    assert (gauges["devcache_prefetch_issued"] > 0) == prefetch
    return {"doc": doc(result), "crash_sites": crash_sites(
        "bytefs", make(), page_cache_pages=128, devcache=devcache)}


def log_cleaning() -> Dict[str, str]:
    """A 32 KB log (16 KB a half) cleaned 14 times under varmail.  At
    16 KB the same case raises ``LogFullError`` (ROADMAP "The firmware
    under pressure")."""
    def varmail():
        return Varmail(n_files=64, n_threads=4, ops_per_thread=60, seed=7)

    kw = {"geometry": SMALL_GEOMETRY, "log_bytes": 32 << 10}
    migrated = []
    flush = ByteFSFirmware._flush_page_node

    def counting_flush(self, node):
        migrated.append(
            sum(1 for c in node.chunks if not self.is_committed(c))
        )
        flush(self, node)

    with mock.patch.object(
        ByteFSFirmware, "_flush_page_node", counting_flush
    ):
        result = run_workload("bytefs", varmail(), **kw)
    # the log cleans many times, cleaning reads partially logged pages
    # back from flash, and uncommitted entries migrate
    assert result.counters["fw_log_cleanings"] >= 10
    assert result.counters["fw_clean_partial_reads"] > 0
    assert sum(migrated) > 0
    return {
        "doc": doc(result),
        "trace": trace_jsonl("bytefs", varmail(), **kw),
        "crash_sites": crash_sites("bytefs", varmail(), log_bytes=32 << 10),
    }


#: 4 MB: a few dozen OLTP ops per thread wrap it and garbage-collect
TINY_GEOMETRY = FlashGeometry(
    n_channels=2, ways_per_channel=1, blocks_per_way=16, pages_per_block=32,
    page_size=4096,
)


def ext4_crash() -> Tracer:
    """A hand-built ext4 stack fsyncs one file, dirties more, loses
    power and remounts (firmware RECOVER, then journal replay), traced
    from the first syscall."""
    with bound():
        clock, _stats, device, fs = build_stack(
            "ext4", geometry=SMALL_GEOMETRY
        )
        tracer = Tracer(clock)
        with trace.activated(tracer):
            fd = fs.open("/kept", O_CREAT | O_RDWR)
            fs.pwrite(fd, 0, b"k" * 6000)
            fs.fsync(fd)
            fs.mkdir("/lost")
            fs.pwrite(fd, 8192, b"l" * 100)
            device.power_fail()
            fs.crash()
            fs.remount()
    return tracer


def span_path(case: str, run: Callable[[], Tracer], wanted) -> Dict[str, str]:
    """A span path no other trace pin reaches, and the (layer, op) spans
    it exists for."""
    tracer = run()
    assert wanted <= {(s.layer, s.op) for s in tracer.spans}
    return {"trace": to_jsonl(tracer, {"case": case})}


def traced(fs_name, make_workload, **kw) -> Callable[[], Tracer]:
    return lambda: run_workload(
        fs_name, make_workload(), traced=True, **kw
    ).trace


def small_fileserver(fs_name) -> Callable[[], Tracer]:
    """Fileserver with a host cache small enough that it reads back."""
    return traced(
        fs_name,
        lambda: Fileserver(n_files=6, n_threads=2, ops_per_thread=3, seed=7),
        geometry=SMALL_GEOMETRY, page_cache_pages=16,
    )


#: the write-back shapes: eviction runs, fsync batches, journal
#: checkpoints (each is run with a 48-page host cache)
WRITEBACK_SHAPES = {
    "bytefs-fileserver": ("bytefs", lambda: Fileserver(
        n_files=6, n_threads=2, ops_per_thread=3, seed=7)),
    "bytefs-varmail": ("bytefs", lambda: Varmail(
        n_files=8, n_threads=2, ops_per_thread=2, seed=7)),
    "ext4-oltp": ("ext4", lambda: OLTP(
        n_threads=2, ops_per_thread=6, seed=7)),
}


def crash_stats(n_crashes: int = 9) -> Dict[str, str]:
    """The traffic a power loss in the middle of a block write-back run
    leaves filed: on two write-back shapes, ``n_crashes`` crashes at
    ``mssd.write_block`` sites that are not the first page of their run,
    spread over the run of the workload.

    Each artefact is read inside the ``except CrashPoint`` handler, while
    the traceback still holds the suspended frames of the run: whatever
    a layer files in a generator's ``finally`` is not in it yet, and
    whatever it files in a plain function's ``finally`` is."""
    texts = {}
    for name in ("bytefs-fileserver", "ext4-oltp"):
        fs_name, make = WRITEBACK_SHAPES[name]
        sites, _added = counting_run(fs_name, make(), page_cache_pages=48)
        mid_run = [
            site.index for prev, site in zip(sites, sites[1:])
            if site.label == prev.label == "mssd.write_block"
        ]
        assert len(mid_run) > 4 * n_crashes
        seen = []
        for k in range(n_crashes):
            site = mid_run[(2 * k + 1) * len(mid_run) // (2 * n_crashes)]
            faults = FaultInjector()
            workload = make()
            clock, stats, _device, fs = build_stack(
                fs_name, geometry=SMALL_GEOMETRY, faults=faults,
                n_threads=workload.n_threads, log_bytes=1 << 20,
                device_cache_bytes=1 << 20, page_cache_pages=48,
            )
            faults.arm(FaultPlan(site))
            try:
                drive(clock, fs, workload)
            except CrashPoint:
                seen.append({
                    "site": site,
                    "stats": stats.to_json(),
                    "flash": [
                        [f"{kind.value}:{direction.value}", n]
                        for (kind, direction), n in stats.flash.items()
                    ],
                })
            else:
                raise AssertionError(f"{name}: site {site} never fired")
        texts[name] = json.dumps(seen, sort_keys=True)
    return texts


def cluster_tenants():
    return [
        TenantSpec(name="a", workload="mixed", rate_ops_s=4_000.0,
                   slo_ms=5.0, n_ops=18, device=0),
        TenantSpec(name="b", workload="light", rate_ops_s=1_000.0,
                   slo_ms=2.0, n_ops=12, device=1),
        TenantSpec(name="c", workload="mixed", rate_ops_s=2_000.0,
                   slo_ms=4.0, n_ops=14, device=0),
    ]


def cluster(faults):
    """Three tenants on two devices under DRR, sampled every 0.5 ms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "AUTO", False)
        return serve_cluster(
            cluster_tenants(), fs_name="bytefs", n_devices=2, seed=42,
            geometry=SMALL_GEOMETRY, queue_depth=2, max_queue=256,
            sched="drr", faults=faults, sample_every_ns=500_000.0,
        )


#: one tenant-less faulted device (2) and one crashing under load (0):
#: both recovery paths, and the outage order the reducer has to restore
FAULTS = [DeviceCrash(device=0, after_ops=9),
          DeviceCrash(device=2, at_s=0.0001)]

#: name -> serve_cluster keywords on top of :func:`serve_shape`'s base;
#: ``auto_trace`` is not a keyword but the value ``trace.AUTO`` is
#: pinned to (the bytes must not depend on REPRO_TRACE in the
#: environment); ``tenants`` replaces the four synthetic tenants
SHAPES = {
    "plain": {},
    "faulted": dict(n_devices=3, faults=FAULTS, keep_dispatch_log=True),
    "reject": dict(n_devices=3, faults=FAULTS, outage_policy="reject"),
    "token-bucket": dict(sched="token-bucket"),
    "devcache": dict(devcache=DevCacheConfig(
        cache_bytes=64 * P, policy="clock", prefetch=True,
    )),
    "unmount": dict(unmount=True),
    "auto-trace": dict(auto_trace=True),
    "traced": dict(n_devices=3, faults=FAULTS, traced=True),
    # the built-in profiles on a 64-page host cache: the heavy tenants'
    # 64 KB writes overwrite whole cached pages while reads and other
    # writes evict around them
    "overwrite-evict": dict(
        tenants=default_tenants(8, n_ops=60), page_cache_pages=64,
    ),
}


def serve_shape(name: str, workers: int):
    kw = dict(SHAPES[name])
    auto_trace = kw.pop("auto_trace", False)
    tenants = kw.pop("tenants", None) or [
        TenantSpec(
            name=f"t{i}", workload="synthetic", n_ops=40,
            rate_ops_s=200_000.0, device=i % 2,
            # caps only the token-bucket scheduler reads
            limit_ops_s=(20_000.0, None, 60_000.0, 40_000.0)[i],
            burst_ops=4,
        )
        for i in range(4)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "AUTO", auto_trace)
        return serve_cluster(tenants, **{
            "fs_name": "bytefs", "n_devices": 2, "sched": "drr",
            "seed": 42, "queue_depth": 2, "max_queue": 256,
            "geometry": SMALL_GEOMETRY, "sample_every_ns": 500_000.0,
            "workers": workers, **kw,
        })


def serve_texts(name: str, workers: int = 0) -> Dict[str, str]:
    """Every artefact a serve shape produces."""
    res = serve_shape(name, workers)
    texts = {"doc": doc(res), "series": "\n".join(to_lines(res.telemetry))}
    if res.dispatch_log is not None:
        texts["dispatch_log"] = json.dumps(res.dispatch_log, sort_keys=True)
    if SHAPES[name].get("traced"):
        texts["trace"] = to_jsonl(res.trace, {"shape": name})
    return texts


def cli(*commands: str, workers: int = 0) -> Dict[str, str]:
    """Run each ``repro <command>`` in-process, in one empty directory,
    with ``trace.AUTO`` off; return what each printed (as
    ``<subcommand>.stdout``) and every file they wrote, by name.
    ``{workers}`` in a command is the worker count."""
    texts = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "AUTO", False)
        os.chdir(tmp)
        try:
            for command in commands:
                argv = shlex.split(command.format(workers=workers))
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    assert main(argv) == 0, command
                texts[f"{argv[0]}.stdout"] = out.getvalue()
        finally:
            os.chdir(cwd)
        for path in sorted(Path(tmp).iterdir()):
            texts[path.name] = path.read_text(encoding="utf-8")
    return texts


SERVE_4X2 = "serve --tenants 4 --sched drr --devices 2 --ops 60"

CRASH_DEV0 = [DeviceCrash(0, after_ops=9)]

#: page-fill case -> (fs, workload factory, run keywords)
FILL_CASES = {
    "mmap_stress+devcache": ("bytefs", mmap_stress, {
        "page_cache_pages": 16,
        "devcache": DevCacheConfig(cache_bytes=32 * P, policy="lru",
                                   prefetch=True),
    }),
    "oltp-ext4": ("ext4", lambda: OLTP(ops_per_thread=12, seed=7), {}),
    "webserver": ("bytefs", lambda: Webserver(ops_per_thread=6, seed=7), {}),
}

# ---------------------------------------------------------------------- #
# the table
# ---------------------------------------------------------------------- #

#: row -> producer of ``{artefact: text}``
PINS: Dict[str, Callable[..., Dict[str, str]]] = {
    # every figure workload on every file system
    **{
        f"run/{fs}/{wl}": (lambda fs=fs, wl=wl: {"doc": figure_doc(fs, wl)})
        for fs in ALL_FS for wl in sorted(FIGURE_WORKLOADS)
    },
    # a plain multi-device DRR serve, and the same cluster with a
    # mid-run crash-and-recover on device 0, whose series has a full
    # up 1 -> 0 -> 1 outage
    "cluster/drr-plain": lambda: {"doc": doc(cluster([]))},
    "cluster/drr-crash-dev0": lambda: {"doc": doc(cluster(CRASH_DEV0))},
    "series/drr-crash-dev0": lambda: {
        "series": "\n".join(to_lines(cluster(CRASH_DEV0).telemetry)) + "\n"
    },
    # the serving path, at every worker count (see WORKERS)
    **{f"serve/{name}": partial(serve_texts, name) for name in SHAPES},
    # the single-page fill: host page-cache miss through NAND
    **{
        f"page-fill/{name}/{part}": partial(produce, fs, make, **kw)
        for name, (fs, make, kw) in FILL_CASES.items()
        for part, produce in (("trace", fill_trace),
                              ("crash-sites", fill_sites))
    },
    "page-fill/mmap-faults": mmap_fault_fill,
    # the device cache under every policy, and without the prefetcher
    **{f"devcache/thrash-{policy}": partial(thrash, policy)
       for policy in ("lru", "clock", "hotcold")},
    "devcache/thrash-lru-noprefetch": partial(thrash, "lru", prefetch=False),
    # the ByteFS byte store cleaning its log many times
    "byte-store/log-cleaning": log_cleaning,
    # span paths: f2fs, nova and pmfs traced, FTL GC, ByteFS log
    # cleaning and the ext4 crash path
    **{
        f"span/{fs}": partial(
            span_path, fs, small_fileserver(fs),
            {("firmware", "block_read"), ("firmware", "block_write")}
            if fs == "f2fs" else
            {("firmware", "byte_read"), ("firmware", "byte_write")},
        )
        for fs in ("f2fs", "nova", "pmfs")
    },
    "span/ftl-gc": partial(
        span_path, "ftl-gc",
        traced("ext4", lambda: OLTP(n_threads=2, ops_per_thread=60,
                                    file_size=256 << 10, seed=7),
               geometry=TINY_GEOMETRY, page_cache_pages=16),
        {("ftl", "gc")},
    ),
    "span/log-clean": partial(
        span_path, "log-clean",
        traced("bytefs", lambda: Varmail(n_files=8, n_threads=2,
                                         ops_per_thread=6, seed=7),
               geometry=SMALL_GEOMETRY, log_bytes=16 << 10),
        {("firmware", "log_clean")},
    ),
    "span/ext4-crash": partial(
        span_path, "ext4-crash", ext4_crash,
        {("firmware", "recover"), ("journal", "replay")},
    ),
    # write-back: eviction runs, fsync batches, journal checkpoints
    **{
        f"writeback/{name}": (
            lambda fs=fs, make=make: {"trace": trace_jsonl(
                fs, make(), geometry=SMALL_GEOMETRY, page_cache_pages=48,
            )}
        )
        for name, (fs, make) in WRITEBACK_SHAPES.items()
    },
    # the traffic filed when power fails in the middle of a run
    "writeback/crash-stats": crash_stats,
    # the command line: documents, traces and reports as written
    "cli/trace-create-bytefs": partial(
        cli, "trace create --fs bytefs --out trace.json --report breakdown"),
    "cli/trace-create-bytefs-jsonl": partial(
        cli, "trace create --fs bytefs --format=jsonl --out a.jsonl "
        "--report none"),
    "cli/trace-create-ext4-jsonl": partial(
        cli, "trace create --fs ext4 --format=jsonl --out ext4.jsonl "
        "--report none"),
    # a 64 KB log cleans 20 times under varmail
    "cli/run-varmail-64k": partial(
        cli, "run --fs bytefs --workload varmail --log-bytes 65536 "
        "--format=json"),
    "cli/trace-varmail-64k": partial(
        cli, "trace varmail --fs bytefs --log-bytes 65536 --format=jsonl "
        "--out varmail.jsonl --report none"),
    # at varmail scale: 65 k spans, 2.9 k roots
    "cli/trace-varmail-critical-path": partial(
        cli, "trace varmail --fs bytefs --report critical-path"),
    # overloaded: 32 tenants on 4 devices
    "cli/serve-32x4": partial(
        cli, "serve --tenants 32 --devices 4 --sched drr --fs bytefs "
        "--ops 100 --workers 0 --format=json --out serve_32x4.json"),
    "cli/serve-8x4-faulted": partial(
        cli, "serve --tenants 8 --sched drr --devices 4 --ops 60 "
        "--fault crash:dev0@ops=30+torn --workers {workers} "
        "--out run.json --telemetry-out series.jsonl --format=json"),
    "cli/serve-4x2": partial(
        cli, f"{SERVE_4X2} --format=json --out cluster.json"),
    "cli/serve-4x2-faulted": partial(
        cli, f"{SERVE_4X2} --fault crash:dev0@ops=30+torn --out run.json "
        "--telemetry-out series.jsonl --format=json",
        "top run.json --series series.jsonl"),
    **{
        f"cli/serve-4x2-devcache-{policy}": partial(
            cli, f"{SERVE_4X2} --devcache 256k --evict {policy} "
            f"--prefetch on --format=json --out cache.json")
        for policy in ("lru", "clock", "hotcold")
    },
    # the 768-page working set overflows the 512-page host cache: both
    # runs evict
    "cli/run-mmap-devcache": partial(
        cli, "run --fs bytefs --workload mmap_stress --devcache 1m "
        "--evict hotcold --prefetch on --format=json"),
    "cli/run-mmap-plain": partial(
        cli, "run --fs bytefs --workload mmap_stress --format=json"),
    # the reject policy serves the other tenants through an outage
    "cli/serve-3-reject": partial(
        cli, "serve --tenants 3 --ops 40 --fault crash:dev0@t=0.01 "
        "--outage-policy reject --format=json --out run.json"),
}

#: rows whose producer takes ``workers``: every count given must produce
#: the row's pinned bytes (``workers=0`` is one in-process shard through
#: the routine the worker processes run)
WORKERS = {
    # traced=True keeps one span tree on one tracer: one in-process shard
    **{f"serve/{name}": (0,) if SHAPES[name].get("traced") else (0, 1, 2, 4)
       for name in SHAPES},
    "cli/serve-8x4-faulted": (0, 1, 2),
}

#: row prefix -> the module whose tests check those rows, one test per
#: row and worker count; ``test_pin`` checks every other row
CHECKED_IN = {
    "run/": "tests/test_golden_differential.py",
    "cluster/": "tests/test_golden_differential.py",
    "series/": "tests/test_telemetry.py",
    "serve/": "tests/test_serve_one_path.py",
    "page-fill/": "tests/test_page_fill.py",
    "byte-store/": "tests/test_byte_store.py",
    "span/": "tests/test_span_seam.py",
    "writeback/": "tests/test_writeback_runs.py",
}


def rows(prefix: str):
    """The rows under ``prefix``, without it."""
    return [row[len(prefix):] for row in PINS if row.startswith(prefix)]


def pinned() -> Dict[str, Dict[str, str]]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


#: under ``--update-golden``, the digests written so far: the first
#: worker count of a row writes it, the others must agree
_written: Dict[str, Dict[str, str]] = {}


def check(config, row: str, workers: Optional[int] = None) -> None:
    """Produce ``row`` and compare the sha256 of each artefact with
    ``pins.json``; under ``--update-golden`` write them there."""
    produce = PINS[row]
    texts = produce() if workers is None else produce(workers=workers)
    got = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in sorted(texts.items())
    }
    golden = pinned()
    if config.getoption("--update-golden"):
        golden[row] = _written.setdefault(row, got)
        GOLDEN_PATH.write_text(json.dumps(
            {r: golden[r] for r in PINS if r in golden},
            sort_keys=True, indent=1,
        ) + "\n", encoding="utf-8")
    want = golden.get(row)
    assert want is not None, f"no pin for {row}; run --update-golden"
    moved = sorted(
        name for name in set(got) | set(want)
        if got.get(name) != want.get(name)
    )
    assert not moved, (
        f"{row}: {', '.join(moved)} changed.  A deliberate model change "
        "rewrites tests/golden/pins.json with --update-golden (review "
        "its diff); an optimisation never changes simulated bytes"
    )


def test_every_pinned_row_has_a_producer(pytestconfig):
    if pytestconfig.getoption("--update-golden"):
        pytest.skip("the rows are being rewritten")
    assert sorted(pinned()) == sorted(PINS)


CASES = [
    (row, w) for row in PINS if not row.startswith(tuple(CHECKED_IN))
    for w in WORKERS.get(row, (None,))
]


@pytest.mark.parametrize(
    "row,workers", CASES,
    ids=[row if w is None else f"{row}@w{w}" for row, w in CASES],
)
def test_pin(pytestconfig, row, workers):
    check(pytestconfig, row, workers)
