"""Write-back in runs must be indistinguishable from page-at-a-time.

The run of pages is the unit of write-back from the host page cache to
NAND (one stacked XOR diff, one ``MSSD.write_pages`` call, one loop per
layer).  These tests hold it to the behaviour of the page-at-a-time path
it replaced, which lives on here as the reference: same device image,
same traffic counters, same simulated clock bit for bit, same trace
spans, same numbered crash sites, same eviction victims.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import run_workload
from repro.core.bytefs import ByteFS, ByteFSVariant, build_stack
from repro.faults.injector import CrashPoint, FaultInjector, FaultPlan
from repro.fs.errors import FileNotFound
from repro.fs.extfs import ExtFS, ExtFSConfig
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.host.page_cache import CACHELINE, PageCache
from repro.sim.clock import VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.stats.traffic import StructKind, TrafficStats
from repro.trace import tracer as trace
from repro.trace.export import to_jsonl
from repro.trace.probes import bound
from repro.trace.tracer import Tracer
from repro.workloads import OLTP, Fileserver, Varmail
from tests.conftest import SMALL_GEOMETRY

P = 4096
LINES = P // CACHELINE

#: bytefs with and without firmware transactions, ext4 (no CoW, baseline
#: firmware) and ByteFS data journaling
CONFIGS = ["bytefs", "bytefs-notx", "ext4", "data_journal"]


def build(config: str, faults=None):
    if config in ("bytefs", "ext4"):
        # no periodic journal commit: it would flush the pages under test
        return build_stack(
            config, geometry=SMALL_GEOMETRY, faults=faults,
            fs_config=ExtFSConfig(commit_interval_ops=1 << 30),
        )
    clock, stats = VirtualClock(1), TrafficStats()
    device = MSSD(
        MSSDConfig(geometry=SMALL_GEOMETRY, firmware="bytefs"),
        clock, stats, faults,
    )
    if config == "data_journal":
        fs = ByteFS(device, ByteFSVariant.FULL, ExtFSConfig(data_journal=True))
    else:
        fs = ExtFS(
            device, ExtFSConfig(metadata_byte=True, data_byte_policy=True)
        )
    return clock, stats, device, fs


# ---------------------------------------------------------------------- #
# the reference: §4.6 write-back one page at a time, as it was before
# ---------------------------------------------------------------------- #

def reference_chunks(page):
    """Dirty (offset, length) runs by comparing 64 B lines one by one."""
    runs, start = [], None
    for off in range(0, len(page.data), CACHELINE):
        dirty = page.data[off:off + CACHELINE] != \
            page.original[off:off + CACHELINE]
        if dirty and start is None:
            start = off
        elif not dirty and start is not None:
            runs.append((start, off - start))
            start = None
    if start is not None:
        runs.append((start, len(page.data) - start))
    return runs


def reference_writeback_inner(fs, ino, pidx, page, txid, journal_ok):
    blk = fs._block_of(fs._get_inode(ino), pidx)
    if blk is None:
        page.clean()
        return "none"
    if fs.cfg.data_byte_policy and page.original is not None:
        fs.clock.advance(fs.timing.xor_page_ns)
        chunks = reference_chunks(page)
        ratio = sum(-(-n // CACHELINE) for _off, n in chunks) / LINES
        if ratio < fs.cfg.byte_ratio_threshold:
            for off, n in chunks:
                fs.device.store(
                    blk * P + off, bytes(page.data[off:off + n]),
                    StructKind.DATA, txid=txid,
                )
            page.clean()
            fs.stats.bump("bytefs_byte_writebacks")
            return "byte"
    if fs.cfg.data_journal and fs.jbd2 is not None and journal_ok:
        fs.jbd2.mark_dirty_data(blk, bytes(page.data))
        page.clean()
        fs.stats.bump("journaled_data_writebacks")
        return "journal"
    fs.device.write_blocks(blk, bytes(page.data), StructKind.DATA)
    page.clean()
    fs.stats.bump("block_writebacks")
    return "block"


def reference_writeback(fs, batch, txid, journal_ok):
    for ino, pidx, page in batch:
        if not trace.ENABLED:
            reference_writeback_inner(fs, ino, pidx, page, txid, journal_ok)
            continue
        sp = trace.begin("pagecache", "writeback", ino=ino, pidx=pidx)
        try:
            policy = reference_writeback_inner(
                fs, ino, pidx, page, txid, journal_ok
            )
            sp.attrs = dict(sp.attrs or {}, policy=policy)
        finally:
            trace.end(sp)


# ---------------------------------------------------------------------- #
# (a) hypothesis equivalence: image, counters, clock
# ---------------------------------------------------------------------- #

#: dirty-line sets per page, crowded around R = 1/8 (8 of 64 lines)
page_patterns = st.lists(
    st.one_of(
        st.sets(st.integers(0, LINES - 1), min_size=5, max_size=11),
        st.sets(st.integers(0, LINES - 1), max_size=LINES),
        st.just(frozenset(range(LINES))),
    ),
    min_size=1, max_size=10,
)


def dirty_a_file(fs, patterns):
    """A synced file of ``len(patterns)`` pages whose page ``i`` then gets
    the lines ``patterns[i]`` rewritten; returns (fd, ino, batch)."""
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"\x11" * (P * len(patterns)))
    fs.fsync(fd)
    for pidx, lines in enumerate(patterns):
        if not lines:
            # touched but unchanged: a CoW page with zero dirty lines
            fs.pwrite(fd, pidx * P, b"\x11" * CACHELINE)
        for line in sorted(lines):
            fs.pwrite(
                fd, pidx * P + line * CACHELINE,
                bytes([0x20 + line]) * CACHELINE,
            )
    ino = fs.stat("/f").ino
    batch = [
        (ino, pidx, page) for pidx, page in fs.page_cache.dirty_pages(ino)
    ]
    assert len(batch) == len(patterns)
    return fd, ino, batch


def writeback_args(fs, ino, mode):
    if mode == "evict":
        return None, False
    return (fs._ino_tx.get(ino) if fs.cfg.fw_tx else None), True


def observe(clock, stats, device, fs, ino, n_pages):
    """Everything a write-back may change, read after the fact."""
    seen = {
        "now": clock.now,
        "stats": stats.to_json(),
        "gauges": device.gauges(),
        "link": (device.link.mmio_writes, device.link.dma_transfers),
        "running_data": dict(fs.jbd2.running_data) if fs.jbd2 else None,
        "dirty": fs.page_cache.dirty_pages(ino),
    }
    inode = fs._get_inode(ino)
    seen["image"] = [
        device.read_blocks(fs._block_of(inode, pidx), 1, StructKind.DATA)
        for pidx in range(n_pages)
    ]
    return seen


@pytest.mark.parametrize("mode", ["fsync", "evict"])
@pytest.mark.parametrize("config", CONFIGS)
@settings(max_examples=20, deadline=None)
@given(patterns=page_patterns)
def test_run_equals_page_at_a_time(config, mode, patterns):
    seen = []
    for batched in (True, False):
        clock, stats, device, fs = build(config)
        _fd, ino, batch = dirty_a_file(fs, patterns)
        txid, journal_ok = writeback_args(fs, ino, mode)
        if batched:
            fs._writeback_pages(batch, txid, journal_ok)
        else:
            reference_writeback(fs, batch, txid, journal_ok)
        seen.append(observe(clock, stats, device, fs, ino, len(patterns)))
    assert seen[0] == seen[1]
    assert repr(seen[0]["now"]) == repr(seen[1]["now"])


def test_mixed_run_takes_both_interfaces():
    """The equivalence above is not vacuous: one run, both policies."""
    _clock, stats, _device, fs = build("bytefs")
    patterns = [{1}, set(range(LINES)), {2, 3}, set(range(8)), {5}]
    _fd, ino, batch = dirty_a_file(fs, patterns)
    before = dict(stats.counters)
    fs._writeback_pages(batch, fs._ino_tx.get(ino))
    delta = {
        key: stats.counters.get(key, 0) - before.get(key, 0)
        for key in ("bytefs_byte_writebacks", "block_writebacks")
    }
    # 8 of 64 lines is exactly 1/8: block interface
    assert delta == {"bytefs_byte_writebacks": 3, "block_writebacks": 2}


# ---------------------------------------------------------------------- #
# (b) eviction victims: a run against successive single installs
# ---------------------------------------------------------------------- #

class RecordingCache:
    """A PageCache plus the flat list of victims it handed back."""

    def __init__(self, capacity):
        self.pc = PageCache(capacity, P)
        self.victims = []

    def writeback(self, batch):
        for ino, index, page in batch:
            self.victims.append((ino, index, bytes(page.data)))
            page.clean()

    def write_run(self, ino, start, data, cow):
        """Whole-page writes the way ``ExtFS._write_buffered`` does."""
        pc, i = self.pc, 0
        while i < len(data):
            took = pc.install_dirty_run(
                ino, start + i // P, data, i, cow, self.writeback
            )
            if not took:
                self.write_single(ino, start + i // P, data[i:i + P], cow)
                took = 1
            i += took * P

    def write_single(self, ino, index, data, cow):
        """lookup / install a zero page / mark dirty / copy."""
        pc = self.pc
        page = pc.lookup(ino, index)
        if page is None:
            page = pc.install(ino, index, bytes(P), self.writeback)
        pc.mark_page_dirty(page, cow)
        page.data[:] = data

    def state(self):
        pc = self.pc
        return {
            "victims": self.victims,
            "lru": [
                (key, bytes(page.data), page.dirty, page.original)
                for key, page in pc._lru.items()
            ],
            "stale": sorted(pc._stale_keys),
            "counters": (pc.hits, pc.misses, pc.cow_copies),
            "spaces": {
                ino: sorted(space.pages) for ino, space in pc._spaces.items()
            },
        }


def payload(n_pages, salt):
    return b"".join(bytes([salt + i]) * P for i in range(n_pages))


def prepare_all_dirty(rc):
    for index in range(4):
        rc.write_single(1, index, bytes([index + 1]) * P, True)


def prepare_not_yet_full(rc):
    rc.write_single(1, 0, b"a" * P, True)
    rc.pc.install(1, 1, b"b" * P, rc.writeback)


def prepare_clean_and_dirty(rc):
    for index in range(4):
        rc.pc.install(2, index, bytes([index + 1]) * P, rc.writeback)
    rc.pc.mark_dirty(2, 1, cow=False)
    rc.pc.lookup(2, 0)  # page 0 is now the most recently used


def prepare_stale_keys(rc):
    prepare_all_dirty(rc)
    # truncate behind the cache's back: keys 1 and 2 go stale, and the
    # run below then re-installs page 2 over its stale key
    rc.pc.space(1).drop(1)
    rc.pc.space(1).drop(2)


@pytest.mark.parametrize("cow", [True, False])
@pytest.mark.parametrize("prepare, start, n_pages", [
    (prepare_all_dirty, 10, 3),
    (prepare_all_dirty, 2, 4),        # the run starts on cached pages
    (prepare_not_yet_full, 5, 3),
    (prepare_clean_and_dirty, 7, 3),
    (prepare_stale_keys, 2, 3),
    (prepare_stale_keys, 8, 4),
    (prepare_all_dirty, 20, 11),      # longer than capacity
], ids=[
    "all-dirty", "overlaps-cached", "not-yet-full", "clean-first",
    "stale-in-run", "stale-victims", "longer-than-capacity",
])
def test_run_evicts_what_single_installs_would(prepare, start, n_pages, cow):
    data = payload(n_pages, 0x40)
    run, single = RecordingCache(4), RecordingCache(4)
    prepare(run)
    prepare(single)
    run.write_run(1, start, data, cow)
    for i in range(n_pages):
        single.write_single(1, start + i, data[i * P:(i + 1) * P], cow)
    assert run.state() == single.state()
    assert run.pc.cached_pages == 4  # every case fills the cache


@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 6),
    history=st.lists(
        st.tuples(
            st.sampled_from(["write", "read", "clean", "drop", "run"]),
            st.integers(1, 2), st.integers(0, 9), st.integers(1, 8),
        ),
        max_size=25,
    ),
)
def test_run_victims_match_under_random_histories(capacity, history):
    run, single = RecordingCache(capacity), RecordingCache(capacity)
    for step, (op, ino, index, n_pages) in enumerate(history):
        for rc in (run, single):
            pc = rc.pc
            if op == "write":
                rc.write_single(ino, index, bytes([step]) * P, True)
            elif op == "read":
                if pc.lookup(ino, index) is None:
                    pc.install(ino, index, b"r" * P, rc.writeback)
            elif op == "clean":
                page = pc.space(ino).get(index)
                if page is not None:
                    page.clean()
            elif op == "drop":
                pc.space(ino).drop(index)
            elif rc is run:
                rc.write_run(ino, index, payload(n_pages, step), True)
            else:
                data = payload(n_pages, step)
                for i in range(n_pages):
                    rc.write_single(
                        ino, index + i, data[i * P:(i + 1) * P], True
                    )
        assert run.state() == single.state()


# ---------------------------------------------------------------------- #
# (c) crash sites and trace spans
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("mode", ["fsync", "evict"])
@pytest.mark.parametrize("config", CONFIGS)
def test_armed_injector_numbers_the_same_sites(config, mode):
    patterns = [{1}, set(range(LINES)), set(range(20)), {2, 9}, set(range(8))]
    traces = []
    for batched in (True, False):
        faults = FaultInjector()
        _clock, _stats, _device, fs = build(config, faults)
        _fd, ino, batch = dirty_a_file(fs, patterns)
        txid, journal_ok = writeback_args(fs, ino, mode)
        faults.start_count()
        if batched:
            fs._writeback_pages(batch, txid, journal_ok)
        else:
            reference_writeback(fs, batch, txid, journal_ok)
        traces.append(
            [(s.index, s.label, s.nbytes, s.atom) for s in faults.trace]
        )
    assert traces[0] == traces[1]
    labels = {label for _i, label, _n, _a in traces[0]}
    if not (config == "data_journal" and mode == "fsync"):
        assert "mssd.write_block" in labels
    if config != "ext4":
        assert "mssd.store" in labels and "fw.log_append" in labels


@pytest.mark.parametrize("torn", [False, True])
@pytest.mark.parametrize("config", ["bytefs", "ext4"])
def test_crash_inside_a_run_leaves_the_same_device(config, torn):
    """Power loss at the third ``mssd.write_block`` of a run: the pages
    before it are on the device, a torn prefix of it too, nothing after."""
    patterns = [set(range(LINES))] * 5
    sites = _sites_of_writeback(config, patterns)
    third = [i for i, label in sites if label == "mssd.write_block"][2]
    images = []
    for batched in (True, False):
        faults = FaultInjector()
        clock, stats, device, fs = build(config, faults)
        _fd, ino, batch = dirty_a_file(fs, patterns)
        faults.arm(FaultPlan(third, torn=torn, seed=3))
        with pytest.raises(CrashPoint):
            if batched:
                fs._writeback_pages(batch, None, False)
            else:
                reference_writeback(fs, batch, None, False)
        faults.disarm()
        inode = fs._get_inode(ino)
        images.append((
            clock.now,
            stats.to_json(),
            [device.read_blocks(fs._block_of(inode, pidx), 1, StructKind.DATA)
             for pidx in range(len(patterns))],
            [page.dirty for _ino, _pidx, page in batch],
        ))
    assert images[0] == images[1]
    assert images[0][3] == [False, False, True, True, True]


def _sites_of_writeback(config, patterns):
    faults = FaultInjector()
    _clock, _stats, _device, fs = build(config, faults)
    _fd, _ino, batch = dirty_a_file(fs, patterns)
    faults.start_count()
    fs._writeback_pages(batch, None, False)
    return [(s.index, s.label) for s in faults.trace]


@pytest.mark.parametrize("mode", ["fsync", "evict"])
@pytest.mark.parametrize("config", CONFIGS)
def test_trace_spans_are_those_of_page_at_a_time(config, mode):
    patterns = [{1}, set(range(LINES)), set(range(20)), {2, 9}, set(range(8))]
    docs = []
    for batched in (True, False):
        with bound():
            clock, _stats, _device, fs = build(config)
            _fd, ino, batch = dirty_a_file(fs, patterns)
            txid, journal_ok = writeback_args(fs, ino, mode)
            tracer = Tracer(clock)
            with trace.activated(tracer):
                if batched:
                    fs._writeback_pages(batch, txid, journal_ok)
                else:
                    reference_writeback(fs, batch, txid, journal_ok)
        assert tracer.open_depth() == 0
        docs.append(to_jsonl(tracer, {"config": config}))
    assert docs[0] == docs[1]
    assert '"op":"writeback"' in docs[0]


#: sha256 of the exported JSONL trace of three small runs, taken on the
#: page-at-a-time tree (the commit before write-back in runs).  A change
#: that moves a span, an id or a timestamp on the write-back path —
#: eviction runs, fsync batches, journal checkpoints — changes these.
TRACE_GOLDEN = {
    "bytefs/fileserver":
        "fd629a47145ac04fe8e6344e7a564eac89dbd77efc62b454472cae556da4cfc3",
    "bytefs/varmail":
        "cd8c2c189fea3e0382dc2c645bd47f9b7896398565b1b51d415350cbba0ec87e",
    "ext4/oltp":
        "606ee54884c0e25aa03a7ed3dd77f9763fe01e76e024a3f0015d1687c5f8d58c",
}


@pytest.mark.parametrize("fs_name, workload", [
    ("bytefs", Fileserver(n_files=6, n_threads=2, ops_per_thread=3, seed=7)),
    ("bytefs", Varmail(n_files=8, n_threads=2, ops_per_thread=2, seed=7)),
    ("ext4", OLTP(n_threads=2, ops_per_thread=6, seed=7)),
], ids=sorted(TRACE_GOLDEN))
def test_trace_jsonl_golden_is_byte_identical(fs_name, workload):
    result = run_workload(
        fs_name, workload, geometry=SMALL_GEOMETRY, page_cache_pages=48,
        traced=True,
    )
    text = to_jsonl(result.trace, {"fs": fs_name, "workload": workload.name})
    assert hashlib.sha256(text.encode()).hexdigest() == \
        TRACE_GOLDEN[f"{fs_name}/{workload.name}"]


# ---------------------------------------------------------------------- #
# (d) inode allocation
# ---------------------------------------------------------------------- #

def lowest_free_ino(fs):
    for ino in range(2, fs._sb.n_inodes):
        if not fs._ibmap[ino // 8] & (1 << (ino % 8)):
            return ino
    return None


@pytest.mark.parametrize("fs_name", ["ext4", "bytefs"])
@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.just(("create",)),
            st.tuples(st.just("unlink"), st.integers(0, 40)),
            st.just(("remount",)),
        ),
        min_size=1, max_size=40,
    )
)
def test_alloc_ino_returns_the_lowest_free_ino(fs_name, ops):
    _clock, _stats, device, fs = build_stack(fs_name, geometry=SMALL_GEOMETRY)
    live = {}
    created = 0
    for op in ops:
        if op[0] == "create":
            expected = lowest_free_ino(fs)
            name = f"/n{created}"
            created += 1
            fs.close(fs.open(name, O_CREAT | O_RDWR))
            live[name] = fs.stat(name).ino
            assert live[name] == expected
        elif op[0] == "unlink" and live:
            name = list(live)[op[1] % len(live)]
            fs.unlink(name)
            del live[name]
        elif op[0] == "remount":
            fs.sync()
            device.power_fail()
            fs.crash()
            fs.remount()
            assert fs._ino_hint == 2
    assert sorted(live.values()) == sorted(set(live.values()))


def test_alloc_ino_skips_full_bitmap_bytes_and_reuses_holes():
    _clock, _stats, _device, fs = build_stack("ext4", geometry=SMALL_GEOMETRY)
    for i in range(40):
        fs.close(fs.open(f"/f{i}", O_CREAT | O_RDWR))
    inos = [fs.stat(f"/f{i}").ino for i in range(40)]
    assert inos == list(range(2, 42))
    fs.unlink("/f20")
    fs.unlink("/f3")
    fs.close(fs.open("/a", O_CREAT | O_RDWR))
    fs.close(fs.open("/b", O_CREAT | O_RDWR))
    fs.close(fs.open("/c", O_CREAT | O_RDWR))
    assert [fs.stat(p).ino for p in ("/a", "/b", "/c")] == [5, 22, 42]


# ---------------------------------------------------------------------- #
# (e) Varmail no longer deletes a message another thread is using
# ---------------------------------------------------------------------- #

def test_varmail_seed_6_runs_clean():
    """``Varmail(ops_per_thread=400, seed=6)`` on bytefs used to raise
    FileNotFound: thread B's deleter picked the message thread A had
    created one yield earlier and was about to read."""
    try:
        result = run_workload("bytefs", Varmail(ops_per_thread=400, seed=6))
    except FileNotFound as exc:  # pragma: no cover - the regression
        pytest.fail(f"Varmail raced with itself: {exc}")
    assert result.ops > 12 * 400 * 4
