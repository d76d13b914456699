"""FSSan runtime sanitizer: off-by-default, exercised, and trippable.

One trip test per invariant class proves each contract is live (a check
that can never fail is documentation, not a sanitizer), and the workload
test proves real runs actually reach every class.
"""

from __future__ import annotations

import pytest

from repro.analysis import fssan
from repro.bench.harness import run_workload
from repro.core.bytefs import build_stack
from repro.devcache import DevCacheConfig
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.ftl.mapping import PageMap
from repro.sim.clock import VirtualClock
from repro.sim.resources import Resource
from repro.ssd.firmware.log_index import ChunkEntry, LogIndex
from repro.stats.traffic import StructKind
from repro.workloads import MicroCreate
from tests.conftest import SMALL_GEOMETRY, make_device


@pytest.fixture(autouse=True)
def _sanitizer_state():
    """Restore the global switch and counters around every test."""
    prev = fssan.ENABLED
    fssan.reset_counts()
    yield
    fssan.ENABLED = prev
    fssan.reset_counts()


def _chunk(offset: int, length: int, seq: int = 0) -> ChunkEntry:
    return ChunkEntry(
        offset=offset, length=length, log_off=0, txid=None, seq=seq,
        data=b"x" * length,
    )


# ---------------------------------------------------------------------- #
# off by default
# ---------------------------------------------------------------------- #

def test_checks_are_noops_when_disabled():
    fssan.disable()
    pm = PageMap(256)
    pm.bind(1, 50)
    pm.bind(2, 50)          # steals PPA 50: would trip when enabled
    index = LogIndex(capacity_bytes=1 << 20, page_size=4096)
    index.insert(3, _chunk(offset=4000, length=200))  # crosses the page
    Resource("r").serve(0.0, -5.0)
    assert fssan.COUNTS == {}


def test_sanitized_context_restores_previous_state():
    fssan.disable()
    with fssan.sanitized():
        assert fssan.ENABLED
        with fssan.sanitized():
            assert fssan.ENABLED
        assert fssan.ENABLED
    assert not fssan.ENABLED


# ---------------------------------------------------------------------- #
# one trip test per invariant class
# ---------------------------------------------------------------------- #

def test_trip_log_chunk_outside_page():
    index = LogIndex(capacity_bytes=1 << 20, page_size=4096)
    with fssan.sanitized():
        index.insert(3, _chunk(offset=0, length=64))  # fine
        with pytest.raises(fssan.SanitizerError) as exc:
            index.insert(3, _chunk(offset=4000, length=200, seq=1))
    assert exc.value.invariant == fssan.LOG


def test_trip_log_chunk_negative_lpa():
    index = LogIndex(capacity_bytes=1 << 20, page_size=4096)
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError) as exc:
            index.insert(-4, _chunk(offset=0, length=64))
    assert exc.value.invariant == fssan.LOG


def test_trip_index_chunk_list_out_of_order():
    index = LogIndex(capacity_bytes=1 << 20, page_size=4096)
    for seq, offset in enumerate((0, 64, 128)):
        index.insert(3, _chunk(offset=offset, length=64, seq=seq))
    chunks = index.lookup(3).chunks
    chunks.reverse()  # corrupt: no longer (offset, seq)-ordered
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError) as exc:
            index.insert(20, _chunk(offset=0, length=64, seq=3))
    assert exc.value.invariant == fssan.INDEX


def test_index_entry_listed_twice_is_a_violation():
    """An entry listed twice in a chunk list trips the index check (no
    firmware path lists one twice), and so does a distinct entry with
    the same (offset, seq)."""
    entry = _chunk(offset=64, length=64, seq=5)
    for second in (entry, _chunk(offset=64, length=64, seq=5)):
        index = LogIndex(capacity_bytes=1 << 20, page_size=4096)
        with fssan.sanitized():
            index.insert(3, entry)
            with pytest.raises(fssan.SanitizerError) as exc:
                index.insert(3, second)
        assert exc.value.invariant == fssan.INDEX


def test_trip_ftl_double_bind_steals_live_page():
    pm = PageMap(256)
    with fssan.sanitized():
        pm.bind(1, 50)
        with pytest.raises(fssan.SanitizerError) as exc:
            pm.bind(2, 50)  # PPA 50 still live under LPA 1
    assert exc.value.invariant == fssan.FTL


def test_trip_txlog_prune_drops_a_logged_txid(monkeypatch):
    """A prune that drops a committed TxID whose entry is still in the
    write log would uncommit it: FSSAN-TX trips."""
    device = make_device("bytefs")
    device.store(0, b"a" * 64, StructKind.INODE, txid=1)
    device.commit(1)
    txlog = device.firmware.txlog
    monkeypatch.setattr(  # a swap that keeps nothing
        txlog, "replace", lambda _txids: setattr(txlog, "positions", {})
    )
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError) as exc:
            device.firmware._prune_txlog()
    assert exc.value.invariant == fssan.TX


def test_trip_resource_negative_duration():
    res = Resource("flash-ch0")
    with fssan.sanitized():
        res.serve(0.0, 10.0)
        with pytest.raises(fssan.SanitizerError) as exc:
            res.serve(0.0, -5.0)
    assert exc.value.invariant == fssan.CLOCK


def test_trip_clock_advance_to_nan():
    clock = VirtualClock(1)
    with fssan.sanitized():
        clock.advance(10.0)
        with pytest.raises(fssan.SanitizerError) as exc:
            clock.advance_to(float("nan"))
    assert exc.value.invariant == fssan.CLOCK


@pytest.mark.parametrize("barrier", ["flush_all", "recover"])
def test_trip_devcache_at_the_drain_barrier(barrier):
    """A prefetched frame that is not resident passes silently without
    the sanitizer and trips it at the next drain (unmount or recovery)."""
    _clock, _stats, device, fs = build_stack(
        "bytefs", geometry=SMALL_GEOMETRY,
        devcache=DevCacheConfig(cache_bytes=1 << 16, prefetch=True),
    )
    fd = fs.open("/f", O_CREAT | O_RDWR)
    fs.write(fd, b"x" * 40960)
    fs.fsync(fd)
    device.devcache.check_invariants()
    device.devcache._prefetched.add(1 << 20)
    fssan.reset_counts()
    fssan.disable()
    getattr(device, barrier)()
    assert fssan.COUNTS == {}
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError, match="not resident") \
                as exc:
            getattr(device, barrier)()
    assert exc.value.invariant == fssan.DEVCACHE


# ---------------------------------------------------------------------- #
# the contracts are exercised by a real run
# ---------------------------------------------------------------------- #

def test_bytefs_workload_exercises_all_invariant_classes():
    """A small ByteFS run must pass through every FSSAN class at least
    once — otherwise the sanitizer silently stopped covering a layer.

    FSSAN-QUEUE lives in the serving layer, so a small cluster run rides
    along with the single-tenant workload, which runs on a device cache
    for FSSAN-DEVCACHE."""
    from repro.cluster import default_tenants, serve_cluster

    with fssan.sanitized():
        run_workload(
            "bytefs",
            MicroCreate(n_files=32, n_threads=2),
            geometry=SMALL_GEOMETRY,
            devcache=DevCacheConfig(),
            unmount=True,
        )
        serve_cluster(
            default_tenants(2, n_ops=8),
            geometry=SMALL_GEOMETRY,
        )
    missing = [c for c in fssan.ALL_CLASSES if fssan.COUNTS.get(c, 0) == 0]
    assert not missing, f"invariant classes never checked: {missing}"


def test_queue_accounting_balances():
    with fssan.sanitized():
        fssan.check_queue_accounting("t", 10, 5, 2, 2, 1)
    assert fssan.COUNTS.get(fssan.QUEUE, 0) >= 1


def test_queue_accounting_trips_on_imbalance():
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError) as exc:
            fssan.check_queue_accounting("t", 10, 5, 2, 2, 0)
    assert exc.value.invariant == fssan.QUEUE


def test_queue_accounting_trips_on_negative_counter():
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError):
            fssan.check_queue_accounting("t", 4, 5, -1, 0, 0)


def test_queue_accounting_balances_with_lost_to_crash():
    # 10 submitted = 5 served + 2 pending + 1 rejected + 1 dropped
    # + 1 lost to a device crash: the one legitimate disappearance.
    with fssan.sanitized():
        fssan.check_queue_accounting("t", 10, 5, 2, 1, 1, lost_to_crash=1)
    assert fssan.COUNTS.get(fssan.QUEUE, 0) >= 1


def test_queue_accounting_trips_when_crash_losses_unaccounted():
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError) as exc:
            fssan.check_queue_accounting("t", 10, 5, 2, 1, 1)
    assert exc.value.invariant == fssan.QUEUE
    assert "lost_to_crash" in str(exc.value)


def test_queue_accounting_trips_on_negative_lost_to_crash():
    with fssan.sanitized():
        with pytest.raises(fssan.SanitizerError):
            fssan.check_queue_accounting("t", 4, 4, 0, 0, 0,
                                         lost_to_crash=-1)


def test_counts_attribute_checks_to_the_right_class():
    pm = PageMap(256)
    with fssan.sanitized():
        pm.bind(1, 50)
    assert fssan.COUNTS.get(fssan.FTL, 0) >= 1
    assert fssan.COUNTS.get(fssan.TX, 0) == 0
