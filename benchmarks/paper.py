"""The paper's evaluation, one function per committed table.

Each function regenerates one ``benchmarks/results/<name>.txt``: it
runs what the table needs, asserts the paper's shapes on the numbers
(who wins, roughly by how much) and returns the table rendered by
:func:`repro.bench.report.format_table`.  ``tests/test_paper_shapes.py``
compares every returned table with its committed file byte for byte, so
a change that moves the paper shows up as a diff of these files;
``pytest tests/test_paper_shapes.py --update-golden`` rewrites them.

Workload runs go through :func:`cell`, which runs each distinct stack
once per process: Figures 6, 8, 9 and 1 read the same plain runs,
Figures 10 and 11 and Table 2 the same unmounted ones.

Scale: the paper runs 1 M-file campaigns for 8 hours on a 32 GB
emulated device; these tables divide counts by ~1000 and the device
DRAM by the same factor (DESIGN.md, "Scaling note").  Every reported
quantity is a ratio or a simulated-time figure.
"""

from __future__ import annotations

import math
import random
from functools import cache, partial
from typing import Callable, Dict, Optional, Tuple

from repro.bench.harness import DEFAULT_GEOMETRY, RunResult, run_workload
from repro.bench.report import format_table, normalize
from repro.core.bytefs import build_stack
from repro.fs.extfs import ExtFSConfig
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.host.page_cache import CachedPage
from repro.kv.db import KVConfig, KVStore
from repro.nand.timing import TimingModel
from repro.sim.clock import MSEC, VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.ssd.firmware.bytefs_fw import ByteFSFirmwareConfig
from repro.ssd.firmware.log_index import ChunkEntry, LogIndex
from repro.ssd.firmware.write_log import aligned_entry_size
from repro.stats.traffic import StructKind, TrafficStats
from repro.workloads import (
    OLTP,
    YCSB,
    Fileserver,
    MicroCreate,
    MicroDelete,
    MicroMkdir,
    MicroRmdir,
    Varmail,
    Webproxy,
    Webserver,
)

ALL_FS = ["ext4", "f2fs", "nova", "pmfs", "bytefs"]
FS_LABEL = {"ext4": "E", "f2fs": "F", "nova": "N", "pmfs": "P", "bytefs": "B"}
MICRO = ["create", "delete", "mkdir", "rmdir"]
MACRO = ["varmail", "fileserver", "webproxy", "webserver", "oltp"]
YCSB_LETTERS = ["A", "B", "C", "D", "E", "F"]

#: workload name -> a fresh instance per call (setup mutates workloads)
WORKLOADS: Dict[str, Callable] = {
    "create": partial(MicroCreate, n_files=480),
    "delete": partial(MicroDelete, n_files=480),
    "mkdir": partial(MicroMkdir, n_dirs=480),
    "rmdir": partial(MicroRmdir, n_dirs=480),
    "varmail": partial(Varmail, ops_per_thread=20),
    "fileserver": partial(Fileserver, ops_per_thread=12),
    "webproxy": partial(Webproxy, ops_per_thread=12),
    "webserver": partial(Webserver, ops_per_thread=10),
    "oltp": partial(OLTP, ops_per_thread=15),
    # Figure 13's shorter varmail and the R ablation's shorter OLTP
    "varmail15": partial(Varmail, ops_per_thread=15),
    "oltp12": partial(OLTP, ops_per_thread=12),
    **{
        f"ycsb-{letter}": partial(
            YCSB, letter, n_records=600, n_ops=600, n_threads=4,
            value_size=400,
        )
        for letter in YCSB_LETTERS
    },
}

#: Figure 13's points: label -> (flash read us, flash write us, CXL link)
FLASH_POINTS = {
    "3/80": (3, 80, False),
    "40/60": (40, 60, False),
    "60/150": (60, 150, False),
    "95/208": (95, 208, False),
    "3/80*CXL": (3, 80, True),
}


def _timing(label: Optional[str]) -> Optional[TimingModel]:
    if label is None:
        return None
    read_us, write_us, cxl = FLASH_POINTS[label]
    timing = TimingModel().with_flash_latency(read_us, write_us)
    return timing.as_cxl() if cxl else timing


def cell(
    fs: str,
    workload: str,
    *,
    unmount: bool = False,
    log_bytes: int = 1 << 20,
    timing: Optional[str] = None,
    page_cache_pages: int = 512,
    fs_config: Tuple[Tuple[str, object], ...] = (),
) -> RunResult:
    """The run of ``WORKLOADS[workload]`` on ``fs``, made once per stack.

    ``timing`` is a :data:`FLASH_POINTS` label and ``fs_config`` a tuple
    of ``(ExtFSConfig field, value)`` pairs; the other arguments are
    :func:`run_workload`'s.  An argument given at its default and one
    left out name the same cell.  Every caller gets the same
    :class:`RunResult` object: read it, never mutate it.
    """
    return _cell(fs, workload, unmount, log_bytes, timing, page_cache_pages,
                 fs_config)


@cache
def _cell(fs, workload, unmount, log_bytes, timing, page_cache_pages,
          fs_config) -> RunResult:
    return run_workload(
        fs, WORKLOADS[workload](), geometry=DEFAULT_GEOMETRY,
        timing=_timing(timing), log_bytes=log_bytes,
        page_cache_pages=page_cache_pages, unmount=unmount,
        fs_config=ExtFSConfig(**dict(fs_config)) if fs_config else None,
    )


def _normalized_rows(workloads, systems, value, baseline):
    """One row per workload: ``value(fs, wl)`` normalized to ``baseline``."""
    norm = {
        wl: normalize({fs: value(fs, wl) for fs in systems}, baseline)
        for wl in workloads
    }
    rows = [[wl] + [norm[wl][fs] for fs in systems] for wl in workloads]
    return norm, rows


# ---------------------------------------------------------------------- #
# Table 1 and Table 2
# ---------------------------------------------------------------------- #


def table1_devices() -> str:
    """Cacheline latency through the byte interface and 4 KB burst
    bandwidth through the block interface, against the paper's M-SSD."""
    clock = VirtualClock(1)
    device = MSSD(MSSDConfig(geometry=DEFAULT_GEOMETRY), clock, TrafficStats())
    # cacheline write (posted + persist barrier = the durable write path)
    t0 = clock.now
    device.store(0, b"x" * 64, StructKind.DATA)
    w_lat = (clock.now - t0) / 1000
    # cacheline read served from the write log (device DRAM)
    t0 = clock.now
    device.load(0, 64, StructKind.DATA)
    r_lat = (clock.now - t0) / 1000
    # sequential block bandwidth: a 16-page burst (the FTL write-buffer
    # size); longer streams are NAND-limited in this 8-channel device
    n = 16
    t0 = clock.now
    device.write_blocks(100, b"y" * 4096 * n, StructKind.DATA)
    w_bw = 4096 * n / (clock.now - t0)  # GB/s (bytes/ns)
    device.flush_all()
    t0 = clock.now
    device.read_blocks(100, n, StructKind.DATA)
    r_bw = 4096 * n / (clock.now - t0)
    # The posted cacheline write itself is 0.6 us; the durable-write path
    # adds the write-verify read.  Reads include the log lookup.
    assert 4.8 <= r_lat < 6.0
    assert 0.6 <= w_lat < 6.5
    # Burst write bandwidth approaches the link number; reads are
    # NAND-limited (8 channels x 40 us) in this configuration.
    assert w_bw > 1.0
    assert r_bw > 0.4
    return format_table(
        "Table 1: M-SSD device characteristics",
        ["device", "R lat us", "W lat us", "R GB/s", "W GB/s"],
        [
            ("M-SSD (paper)", 4.8, 0.6, 3.5, 2.5),
            ("M-SSD (sim)", r_lat, w_lat, r_bw, w_bw),
        ],
        col_width=14,
    )


def table2_amplification() -> str:
    """Read/write amplification of the block file systems, counted after
    an unmount flushes the page cache."""
    amps = {}
    for fs in ("ext4", "f2fs"):
        for wl in MACRO:
            r = cell(fs, wl, unmount=True)
            amps[(fs, wl)] = (r.write_amplification, r.read_amplification)
    # Write amplification > 1 everywhere it is defined.
    for (fs, wl), (wamp, _ramp) in amps.items():
        if not math.isnan(wamp):
            assert wamp > 1.0, (fs, wl)
    # Ext4 journals double-write: worse than F2FS on the fsync-heavy mail
    # workload.
    assert amps[("ext4", "varmail")][0] > amps[("f2fs", "varmail")][0]
    rows = []
    for fs in ("ext4", "f2fs"):
        rows.append([f"{fs} W"] + [amps[(fs, wl)][0] for wl in MACRO])
        rows.append([f"{fs} R"] + [amps[(fs, wl)][1] for wl in MACRO])
    return format_table(
        "Table 2: I/O amplification of the block interface",
        ["fs/dir"] + MACRO,
        rows,
    )


# ---------------------------------------------------------------------- #
# Figure 1: host-SSD traffic by data structure (Ext4, F2FS)
# ---------------------------------------------------------------------- #

BREAKDOWN_KINDS = [
    StructKind.SUPERBLOCK,
    StructKind.BITMAP,
    StructKind.INODE,
    StructKind.DENTRY,
    StructKind.DATA_PTR,
    StructKind.JOURNAL,
    StructKind.DATA,
]


def _share(fs, wl, kind):
    """``kind``'s fraction of ``fs``'s write traffic on ``wl``."""
    bd = cell(fs, wl).write_breakdown
    return bd.get(kind, 0) / (sum(bd.values()) or 1)


def _breakdown(attr, title):
    rows = []
    for fs in ("ext4", "f2fs"):
        for wl in sorted(MICRO + MACRO):
            bd = getattr(cell(fs, wl), attr)
            total = sum(bd.values()) or 1
            rows.append(
                [f"{fs}:{wl}"]
                + [100.0 * bd.get(k, 0) / total for k in BREAKDOWN_KINDS]
            )
    return format_table(
        title,
        ["fs:workload"] + [k.value[:9] for k in BREAKDOWN_KINDS],
        rows,
        col_width=11,
    )


def fig1_write_breakdown() -> str:
    """Figure 1 (a, b): write traffic by structure."""
    # superblock traffic is negligible everywhere (paper: 0.23 % avg)
    for fs in ("ext4", "f2fs"):
        for wl in MICRO + MACRO:
            assert _share(fs, wl, StructKind.SUPERBLOCK) < 0.05
    # metadata (inode + journaled inode updates) is a major share on the
    # metadata-heavy create bench
    assert (
        _share("ext4", "create", StructKind.INODE)
        + _share("ext4", "create", StructKind.JOURNAL)
    ) > 0.20
    # journaling is a big slice of Ext4 writes on fsync-heavy varmail
    assert _share("ext4", "varmail", StructKind.JOURNAL) > 0.15
    # F2FS has no journal traffic at all
    for wl in ("varmail", "oltp"):
        assert _share("f2fs", wl, StructKind.JOURNAL) == 0.0
    # dentry writes matter on directory-churning workloads for ext4
    assert _share("ext4", "mkdir", StructKind.DENTRY) > 0.05
    # data dominates writes on the data-heavy fileserver
    assert _share("ext4", "fileserver", StructKind.DATA) > 0.5
    return _breakdown(
        "write_breakdown",
        "Figure 1 (a,b): write traffic breakdown by structure (%)",
    )


def fig1_read_breakdown() -> str:
    """Figure 1 (c, d): read traffic by structure."""
    return _breakdown(
        "read_breakdown",
        "Figure 1 (c,d): read traffic breakdown by structure (%)",
    )


# ---------------------------------------------------------------------- #
# Figure 6: throughput; Figure 7: YCSB latency
# ---------------------------------------------------------------------- #


def fig6_throughput() -> str:
    """Throughput of E/F/N/P/B on the micro and macro sets, normalized
    to Ext4."""
    workloads = MICRO + MACRO
    norm, rows = _normalized_rows(
        workloads, ALL_FS, lambda fs, wl: cell(fs, wl).throughput, "ext4"
    )
    # create: ByteFS ahead of both block file systems
    assert norm["create"]["bytefs"] > 1.5
    assert norm["create"]["bytefs"] > norm["create"]["f2fs"]
    # NOVA/PMFS do not beat ByteFS anywhere
    for wl in workloads:
        assert norm[wl]["bytefs"] >= norm[wl]["nova"] * 0.95
        assert norm[wl]["bytefs"] >= norm[wl]["pmfs"] * 0.95
    # varmail: ByteFS > F2FS > Ext4
    assert norm["varmail"]["bytefs"] > norm["varmail"]["f2fs"] > 1.0
    # read-heavy webserver: E/F/B within ~20% of each other
    assert 0.8 < norm["webserver"]["bytefs"] < 1.3
    assert 0.8 < norm["webserver"]["f2fs"] < 1.3
    # oltp: ByteFS clearly ahead of Ext4; PMFS behind it (0.90 — it read
    # 1.29 until PMFS's crash consistency was fixed, and EXPERIMENTS.md
    # says which)
    assert norm["oltp"]["bytefs"] > 1.4
    assert norm["oltp"]["pmfs"] < 1.0
    # ByteFS is the fastest of the five everywhere and gains most on
    # create, rmdir and varmail
    for wl in workloads:
        assert max(norm[wl], key=norm[wl].get) == "bytefs", wl
    by_gain = sorted(workloads, key=lambda wl: norm[wl]["bytefs"])
    assert set(by_gain[-3:]) == {"create", "rmdir", "varmail"}
    # PMFS trails Ext4 everywhere, NOVA everywhere but create (§5.2)
    for wl in workloads:
        assert norm[wl]["pmfs"] < 1.0, wl
        assert (norm[wl]["nova"] < 1.0) == (wl != "create"), wl
    return format_table(
        "Figure 6: throughput normalized to Ext4",
        ["workload"] + [FS_LABEL[f] for f in ALL_FS],
        rows,
    )


def fig7_ycsb_latency() -> str:
    """YCSB A-F mean and p95 latency on the LSM store, as speedups over
    Ext4."""
    systems = ["ext4", "f2fs", "bytefs"]

    def latency(fs, letter):
        return cell(fs, f"ycsb-{letter}").latency

    rows = []
    for letter in YCSB_LETTERS:
        base = latency("ext4", letter)
        for op in ("read", "update"):
            if base.count(op) == 0 or base.mean(op) == 0:
                continue
            row = [f"{letter}:{op}"]
            for fs in systems:
                lat = latency(fs, letter)
                row.append(base.mean(op) / max(1e-9, lat.mean(op)))
                row.append(
                    base.percentile(op, 95) / max(1e-9, lat.percentile(op, 95))
                )
            rows.append(row)
    # ByteFS commits updates faster than Ext4 on the 50/50 mix.
    assert latency("bytefs", "A").mean("update") < latency("ext4", "A").mean(
        "update"
    )
    # Read-only YCSB-C: ByteFS within 30 % of Ext4.
    c_b = latency("bytefs", "C").mean("read")
    c_e = latency("ext4", "C").mean("read")
    assert 0.7 < c_b / c_e < 1.4
    # The gains sit on the synchronous write path: ByteFS updates beat
    # F2FS's, which beat Ext4's, on every mix; reads are flat (5 %).
    for letter in YCSB_LETTERS:
        ext4, f2fs, bytefs = (latency(fs, letter) for fs in systems)
        if ext4.count("update"):
            assert (
                bytefs.mean("update") < f2fs.mean("update")
                < ext4.mean("update")
            ), letter
        if ext4.count("read"):
            for lat in (f2fs, bytefs):
                assert 0.95 < ext4.mean("read") / lat.mean("read") < 1.05
    cols = ["wl:op"]
    for fs in systems:
        cols += [f"{fs[:4]} avg", f"{fs[:4]} p95"]
    return format_table(
        "Figure 7: YCSB latency speedup vs Ext4 (higher = faster)",
        cols,
        rows,
        col_width=11,
    )


# ---------------------------------------------------------------------- #
# Figures 8-11: host-SSD and flash traffic
# ---------------------------------------------------------------------- #


def _host_traffic(fs, wl):
    r = cell(fs, wl)
    return r.host_write + r.host_read


def _flash_traffic(fs, wl):
    r = cell(fs, wl, unmount=True)
    return r.flash_read + r.flash_write


def _traffic_table(title, workloads, value, baseline):
    rows = []
    for wl in workloads:
        base = value(baseline, wl) or 1
        rows.append([wl] + [value(fs, wl) / base for fs in ALL_FS])
    return format_table(
        title, ["workload"] + [FS_LABEL[f] for f in ALL_FS], rows
    )


def fig8_micro_traffic() -> str:
    """Host-SSD traffic on the micro set, normalized to NOVA."""
    for wl in ("create", "mkdir"):
        b = cell("bytefs", wl).meta_write
        # metadata traffic: ByteFS far below the block file systems
        assert cell("ext4", wl).meta_write > 4 * b
        assert cell("f2fs", wl).meta_write > 2 * b
        # ByteFS's in-place 64 B updates stay in the same ballpark as the
        # NVM file systems' byte-granular paths (the paper's NOVA/PMFS
        # also pay out-of-place logs / undo journals; the simplified ones
        # here journal less state, so the gap is bounded, not a win)
        assert b <= 4 * cell("nova", wl).meta_write
    return _traffic_table(
        "Figure 8: host-SSD traffic on micro benches (normalized to NOVA)",
        MICRO, _host_traffic, "nova",
    )


def fig9_macro_traffic() -> str:
    """Host-SSD traffic on the macro set, normalized to Ext4."""
    # ByteFS writes no more than Ext4 anywhere
    for wl in MACRO:
        assert cell("bytefs", wl).host_write <= cell("ext4", wl).host_write
    # read-heavy workloads: ByteFS's block reads + host caching beat the
    # DAX file systems' repeated byte-interface reads
    assert (
        cell("nova", "webserver").data_read
        > 1.5 * cell("bytefs", "webserver").data_read
    )
    assert cell("nova", "webproxy").data_read > cell("bytefs", "webproxy").data_read
    return _traffic_table(
        "Figure 9: host-SSD traffic on macro workloads (normalized to Ext4)",
        MACRO, _host_traffic, "ext4",
    )


def fig10_micro_flash() -> str:
    """Flash traffic on the micro set, normalized to Ext4."""
    # ByteFS coalesces metadata: far fewer flash writes than Ext4 on the
    # pure-metadata benches.
    for wl in ("mkdir", "rmdir"):
        assert (
            cell("bytefs", wl, unmount=True).flash_write
            < cell("ext4", wl, unmount=True).flash_write
        )
    return _traffic_table(
        "Figure 10: flash traffic on micro benches (normalized to Ext4)",
        MICRO, _flash_traffic, "ext4",
    )


def fig11_macro_flash() -> str:
    """Flash traffic on the macro set, normalized to Ext4."""
    for wl in ("varmail", "oltp"):
        assert (
            cell("bytefs", wl, unmount=True).flash_write
            < cell("ext4", wl, unmount=True).flash_write
        )
    return _traffic_table(
        "Figure 11: flash traffic on macro workloads (normalized to Ext4)",
        MACRO, _flash_traffic, "ext4",
    )


# ---------------------------------------------------------------------- #
# Figures 12-14: ablation and sensitivity
# ---------------------------------------------------------------------- #


def fig12_ablation() -> str:
    """ByteFS's components, cumulative: Dual (dual interface for
    metadata, page-granular device cache), Log (+ firmware log and
    transactions), full ByteFS (+ adaptive data path)."""
    variants = ["ext4", "bytefs-dual", "bytefs-log", "bytefs"]
    workloads = ["varmail", "fileserver", "webproxy", "oltp"]
    norm, rows = _normalized_rows(
        workloads, variants, lambda fs, wl: cell(fs, wl).throughput, "ext4"
    )
    for wl in workloads:
        # The full design is the best (or near-tied-best) ByteFS variant
        # and never loses to Ext4.  (On OLTP at this scale, Dual's
        # page-granular device *read* cache trades against coordinated
        # caching within a few percent — see EXPERIMENTS.md.)
        full = norm[wl]["bytefs"]
        assert full >= norm[wl]["bytefs-dual"] * 0.90
        assert full >= norm[wl]["bytefs-log"] * 0.95
        assert full >= 0.9
    # The firmware log (deferring the per-write durability barrier to a
    # single COMMIT) must contribute on the fsync-heavy mail workload.
    assert norm["varmail"]["bytefs-log"] > norm["varmail"]["bytefs-dual"]
    # The dual interface alone lifts varmail and OLTP; the data-path
    # policy adds on small-overwrite OLTP.
    assert norm["varmail"]["bytefs-dual"] > 1.0
    assert norm["oltp"]["bytefs-dual"] > 1.0
    assert norm["oltp"]["bytefs"] > norm["oltp"]["bytefs-log"]
    return format_table(
        "Figure 12: ByteFS component ablation (normalized to Ext4)",
        ["workload", "ext4", "dual", "log", "full"],
        rows,
    )


def fig13_flash_latency() -> str:
    """Varmail throughput across flash read/write latencies, plus the
    CXL point (175 ns cachelines)."""
    systems = ["f2fs", "nova", "bytefs"]
    tput = {
        (fs, label): cell(fs, "varmail15", timing=label).throughput
        for label in FLASH_POINTS for fs in systems
    }
    # ByteFS wins at every latency point.
    for label in FLASH_POINTS:
        assert tput[("bytefs", label)] > tput[("f2fs", label)]
        assert tput[("bytefs", label)] > tput[("nova", label)]
    # ByteFS's advantage over F2FS grows with flash write latency.
    adv_low = tput[("bytefs", "3/80")] / tput[("f2fs", "3/80")]
    adv_high = tput[("bytefs", "95/208")] / tput[("f2fs", "95/208")]
    assert adv_high > adv_low * 0.9
    # CXL helps NOVA (cheaper byte interface) more than it helps F2FS.
    nova_gain = tput[("nova", "3/80*CXL")] / tput[("nova", "3/80")]
    f2fs_gain = tput[("f2fs", "3/80*CXL")] / tput[("f2fs", "3/80")]
    assert nova_gain > f2fs_gain
    return format_table(
        "Figure 13: varmail throughput (kops/s) vs flash latency (R/W us)",
        ["flash R/W"] + systems,
        [
            [label] + [tput[(fs, label)] / 1000.0 for fs in systems]
            for label in FLASH_POINTS
        ],
    )


def fig14_log_size() -> str:
    """ByteFS throughput across write-log sizes (the paper's 64 MB-1 GB,
    scaled by the device's factor), normalized to the smallest."""
    sizes = [256 << 10, 512 << 10, 1 << 20, 2 << 20]
    workloads = ["varmail", "oltp"]
    norm, rows = _normalized_rows(
        workloads, sizes,
        lambda size, wl: cell("bytefs", wl, log_bytes=size).throughput,
        sizes[0],
    )
    for wl in workloads:
        # A larger log never hurts more than a few percent.
        assert norm[wl][sizes[-1]] >= 0.9
    return format_table(
        "Figure 14: throughput vs log size (normalized to smallest)",
        ["workload"] + [f"{s >> 10}KB" for s in sizes],
        rows,
    )


# ---------------------------------------------------------------------- #
# Section 4.3, 4.6 and 5.5 claims
# ---------------------------------------------------------------------- #


def sec43_skiplist() -> str:
    """Write-log index memory and hit rate over a full 1 MB log of mixed
    entry sizes (paper: ~21 MB per 256 MB log)."""
    idx = LogIndex(64 << 20, 4096, partition_bytes=1 << 20)
    rng = random.Random(9)
    used = 0
    seq = 0
    while used < 1 << 20:
        lpa = rng.randrange(1024)
        # realistic mixed entry sizes: 64 B cachelines up to 1 KB runs
        length = rng.choice((64, 128, 256, 512, 1024))
        offset = rng.randrange(max(1, (4096 - length) // 64)) * 64
        idx.insert(
            lpa,
            ChunkEntry(offset=offset, length=length, log_off=used,
                       txid=None, seq=seq, data=bytes(length)),
        )
        used += aligned_entry_size(length)
        seq += 1
    rng = random.Random(10)
    hits = sum(
        1 for _ in range(2000) if idx.lookup(rng.randrange(1024)) is not None
    )
    mem = idx.memory_bytes()
    ratio = mem / (1 << 20)
    # the index overhead ratio should be under ~15% of the log, as in the
    # paper (21/256 = 8.2%)
    assert ratio < 0.15
    assert hits > 1500  # most pages of a full log are indexed
    return format_table(
        "Sec 4.3: write-log index cost (paper: ~21MB per 256MB log = 0.08)",
        ["metric", "value"],
        [
            ["chunks indexed", idx.n_chunks],
            ["pages indexed", idx.n_pages],
            ["lookups hit (of 2000)", hits],
            ["index bytes", mem],
            ["index/log ratio", round(ratio, 3)],
        ],
        col_width=24,
    )


def sec46_xor_cow() -> str:
    """The CoW modified ratio of pages after 1-3 small overwrites."""
    rng = random.Random(3)
    ratios = []
    for _ in range(200):
        page = CachedPage(bytes(4096), 4096)
        page.mark_dirty(cow=True)
        # small random overwrites (the buffered-write common case)
        for _w in range(rng.randrange(1, 4)):
            off = rng.randrange(4096 - 64)
            page.data[off : off + 32] = bytes([1]) * 32
        ratios.append(page.modified_ratio())
    below_threshold = sum(1 for r in ratios if r < 1 / 8) / len(ratios)
    # small writes should nearly all select the byte interface
    assert below_threshold > 0.95
    return format_table(
        "Sec 4.6: CoW modified-ratio distribution for small overwrites",
        ["metric", "value"],
        [
            ["pages sampled", len(ratios)],
            ["mean modified ratio", round(sum(ratios) / len(ratios), 4)],
            ["share taking byte path", round(below_threshold, 3)],
        ],
        col_width=24,
    )


def _crash_after_puts(n_ops):
    clock, stats, device, fs = build_stack("bytefs", geometry=DEFAULT_GEOMETRY)
    db = KVStore(fs, config=KVConfig(memtable_bytes=64 << 10))
    for i in range(n_ops):
        db.put(f"user{i % 200:06d}".encode(), bytes(200))
    device.power_fail()
    fs.crash()
    rec = fs.remount()
    # the volume is usable after recovery
    fd = fs.open("/post", O_CREAT | O_RDWR)
    fs.write(fd, b"alive")
    fs.fsync(fd)
    fs.close(fd)
    return rec


def sec55_recovery() -> str:
    """Recovery after a power cut that follows n KV puts."""
    runs = (100, 400, 1200)
    recs = [_crash_after_puts(n) for n in runs]
    # recovery time grows with the amount of logged state
    times = [rec["duration_ns"] for rec in recs]
    assert times[2] >= times[0]
    assert all(rec["duration_ns"] > 0 for rec in recs)
    return format_table(
        "Sec 5.5: ByteFS recovery after power loss",
        ["run", "time ms", "scanned", "flushed", "discarded"],
        [
            [
                f"{n} ops",
                rec["duration_ns"] / MSEC,
                rec["scanned_entries"],
                rec["flushed_pages"],
                rec["discarded_entries"],
            ]
            for n, rec in zip(runs, recs)
        ],
    )


# ---------------------------------------------------------------------- #
# Ablations of the design's fixed choices
# ---------------------------------------------------------------------- #


def ablation_r_threshold() -> str:
    """OLTP throughput across the interface-selection threshold R (the
    paper fixes 1/8)."""
    thresholds = [0.0, 1 / 32, 1 / 8, 1 / 4, 1 / 2]
    tput = {
        t: cell(
            "bytefs", "oltp12", page_cache_pages=2048,
            fs_config=(("byte_ratio_threshold", t),),
        ).throughput
        for t in thresholds
    }
    # the paper's 1/8 should beat pure-block (0.0) on small-overwrite OLTP
    assert tput[1 / 8] >= tput[0.0] * 0.95
    return format_table(
        "Ablation: interface-selection threshold R on OLTP",
        ["threshold", "kops/s", "vs 1/8"],
        [[f"R<{t:.3f}", v / 1000.0, v / tput[1 / 8]] for t, v in tput.items()],
    )


def ablation_clean_threshold() -> str:
    """A byte-write stream on the bare device across log-cleaning
    triggers (the paper fixes 85 %)."""
    results = {}
    for threshold in (0.5, 0.7, 0.85, 0.95):
        cfg = MSSDConfig(
            geometry=DEFAULT_GEOMETRY,
            firmware="bytefs",
            bytefs_fw=ByteFSFirmwareConfig(
                log_bytes=256 << 10, clean_threshold=threshold
            ),
        )
        clock = VirtualClock(1)
        device = MSSD(cfg, clock, TrafficStats())
        t0 = clock.now
        for i in range(8000):
            device.store((i % 997) * 64, bytes(64), StructKind.DATA)
        results[threshold] = (
            8000 / ((clock.now - t0) / 1e9), device.firmware.cleanings
        )
    # Each configuration must sustain the stream (background cleaning).
    for tput, cleanings in results.values():
        assert tput > 0
        assert cleanings > 0
    # A higher trigger cleans no more often.
    counts = [cleanings for _tput, cleanings in results.values()]
    assert counts == sorted(counts, reverse=True)
    return format_table(
        "Ablation: log-cleaning trigger threshold (byte-write stream)",
        ["threshold", "kops/s", "cleanings"],
        [[f"{t:.2f}", v[0] / 1000.0, v[1]] for t, v in results.items()],
    )


#: committed table name (``benchmarks/results/<name>.txt``) -> function
TABLES: Dict[str, Callable[[], str]] = {
    f.__name__: f
    for f in (
        table1_devices,
        table2_amplification,
        fig1_write_breakdown,
        fig1_read_breakdown,
        fig6_throughput,
        fig7_ycsb_latency,
        fig8_micro_traffic,
        fig9_macro_traffic,
        fig10_micro_flash,
        fig11_macro_flash,
        fig12_ablation,
        fig13_flash_latency,
        fig14_log_size,
        sec43_skiplist,
        sec46_xor_cow,
        sec55_recovery,
        ablation_r_threshold,
        ablation_clean_threshold,
    )
}
