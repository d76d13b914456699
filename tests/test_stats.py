"""Unit tests for traffic accounting."""

import math
import pickle
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies

from repro.stats.traffic import (
    Direction,
    Interface,
    LatencyRecorder,
    StructKind,
    TrafficStats,
)


def test_record_and_query_by_filters():
    st = TrafficStats()
    st.record_host_ssd(StructKind.INODE, Direction.WRITE, Interface.BYTE, 64)
    st.record_host_ssd(StructKind.DATA, Direction.WRITE, Interface.BLOCK, 4096)
    st.record_host_ssd(StructKind.DATA, Direction.READ, Interface.BLOCK, 8192)
    assert st.host_ssd_bytes(direction=Direction.WRITE) == 64 + 4096
    assert st.host_ssd_bytes(interface=Interface.BYTE) == 64
    assert st.metadata_bytes(Direction.WRITE) == 64
    assert st.data_bytes(Direction.WRITE) == 4096


def test_amplification():
    st = TrafficStats()
    st.record_app(Direction.WRITE, 1000)
    st.record_host_ssd(StructKind.DATA, Direction.WRITE, Interface.BLOCK, 4000)
    assert st.amplification(Direction.WRITE) == 4.0
    assert math.isnan(st.amplification(Direction.READ))


def test_breakdown_by_kind():
    st = TrafficStats()
    st.record_host_ssd(StructKind.INODE, Direction.WRITE, Interface.BYTE, 10)
    st.record_host_ssd(StructKind.INODE, Direction.WRITE, Interface.BLOCK, 20)
    st.record_host_ssd(StructKind.DENTRY, Direction.WRITE, Interface.BYTE, 5)
    bd = st.breakdown(Direction.WRITE)
    assert bd[StructKind.INODE] == 30
    assert bd[StructKind.DENTRY] == 5


def test_flash_traffic():
    st = TrafficStats()
    st.record_flash(StructKind.DATA, Direction.WRITE, 4096)
    st.record_flash(StructKind.OTHER, Direction.READ, 4096)
    assert st.flash_bytes(direction=Direction.WRITE) == 4096
    assert st.flash_bytes() == 8192


def test_negative_size_rejected():
    st = TrafficStats()
    with pytest.raises(ValueError):
        st.record_host_ssd(
            StructKind.DATA, Direction.WRITE, Interface.BLOCK, -1
        )


def test_metadata_kind_classification():
    assert StructKind.INODE.is_metadata
    assert StructKind.JOURNAL.is_metadata
    assert not StructKind.DATA.is_metadata


def test_counters():
    st = TrafficStats()
    st.bump("x")
    st.bump("x", 4)
    assert st.counters["x"] == 5


def test_fault_counters_separate_from_traffic_counters():
    st = TrafficStats()
    st.bump("gc_runs")
    st.bump_fault("fault_sites_reached", 3)
    assert st.fault_counters["fault_sites_reached"] == 3
    assert "fault_sites_reached" not in st.counters
    assert "gc_runs" not in st.fault_counters


def test_reset():
    st = TrafficStats()
    st.record_app(Direction.WRITE, 10)
    st.bump("y")
    st.reset()
    assert st.app == {}
    assert st.counters == {}


def test_reset_round_trips_to_all_zero_snapshot():
    st = TrafficStats()
    empty = st.snapshot()
    assert all(v == {} for v in empty.values())
    st.record_host_ssd(StructKind.INODE, Direction.WRITE, Interface.BYTE, 64)
    st.record_flash(StructKind.DATA, Direction.WRITE, 4096)
    st.record_app(Direction.WRITE, 64)
    st.bump("gc_runs")
    st.bump_fault("fault_crashes_injected")
    assert st.snapshot() != empty
    st.reset()
    assert st.snapshot() == empty


def test_latency_recorder_percentiles():
    rec = LatencyRecorder()
    for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
        rec.record("op", v)
    assert rec.mean("op") == 55
    assert rec.percentile("op", 0) == 10
    assert rec.percentile("op", 100) == 100
    assert abs(rec.percentile("op", 50) - 55) < 1e-9
    assert rec.count("op") == 10


def test_latency_recorder_empty():
    rec = LatencyRecorder()
    assert math.isnan(rec.mean("nope"))
    assert math.isnan(rec.percentile("nope", 95))


class ListRecorder(LatencyRecorder):
    """The reference: samples as a list of floats per op, as they were
    before they became packed doubles."""

    def __init__(self):
        self._samples = {}
        self._sorted_cache = {}

    def record(self, op, latency_ns):
        self._samples.setdefault(op, []).append(latency_ns)
        self._sorted_cache.pop(op, None)

    def _sorted(self, op):
        samples = self._samples.get(op)
        return sorted(samples) if samples else None

    def merge(self, other):
        for op in sorted(other._samples):
            self._samples.setdefault(op, []).extend(other._samples[op])
        return self


def _report(rec):
    """Everything a recorder reports, as comparable-by-bits text."""
    return repr([
        (op, rec.count(op), rec.mean(op), rec.summary(op),
         [rec.percentile(op, pct) for pct in (0, 12.5, 50, 95, 99, 99.9, 100)])
        for op in rec.ops() + ["never recorded"]
    ])


latency_floats = strategies.floats(
    min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False
)
latency_ops = strategies.sampled_from(["read", "write", "all"])
#: a few values repeated, some series past the 4 096-sample probe that
#: picks a table of runs, and a signed 0.0 that keeps a series sorted
pooled_samples = strategies.builds(
    lambda pool, picks, times: [
        (op, pool[k % len(pool)]) for op, k in picks
    ] * times,
    strategies.lists(
        strategies.one_of(strategies.sampled_from([0.0, -0.0]), latency_floats),
        min_size=1, max_size=8,
    ),
    strategies.lists(
        strategies.tuples(latency_ops, strategies.integers(0, 7)), max_size=60
    ),
    strategies.integers(1, 100),
)
latency_samples = strategies.one_of(
    strategies.lists(strategies.tuples(latency_ops, latency_floats), max_size=200),
    pooled_samples,
)


@settings(max_examples=100, deadline=None)
@given(shards=strategies.lists(latency_samples, min_size=1, max_size=3))
def test_packed_samples_report_what_a_list_of_floats_reports(shards):
    """``record`` / ``merge`` / ``summary`` / ``percentile`` bit for bit,
    and through the pickle a shard's recorder crosses its pipe in."""
    packed, listed = [], []
    for shard in shards:
        for cls, out in ((LatencyRecorder, packed), (ListRecorder, listed)):
            rec = cls()
            for op, value in shard:
                rec.record(op, value)
            out.append(rec)
    assert [_report(r) for r in packed] == [_report(r) for r in listed]
    piped = [pickle.loads(pickle.dumps(rec)) for rec in packed]
    assert [_report(r) for r in piped] == [_report(r) for r in listed]
    merged, reference = LatencyRecorder(), ListRecorder()
    for rec, ref in zip(piped, listed):  # a report per merge: no stale sort
        merged.merge(rec)
        reference.merge(ref)
        assert _report(merged) == _report(reference)


def test_samples_are_packed_doubles_and_pickle_as_raw_bytes():
    rec = LatencyRecorder()
    for i in range(10_000):
        rec.record("op", i * 1.5)
    rec.percentile("op", 99)  # the sort cache is packed too
    for series in (rec._samples["op"], rec._sorted_cache["op"][1]):
        assert type(series) is array and series.typecode == "d"
        assert series.itemsize * len(series) == 80_000
    # 8 B a sample each for the series and its sorted cache, not a
    # pickled float object (9 B + framing) per sample
    assert len(pickle.dumps(rec)) < 2 * 80_000 + 1_000
    clone = pickle.loads(pickle.dumps(rec))
    clone.record("other", 1.0)  # still a recorder: new ops still work
    assert clone.count("other") == 1 and clone.count("op") == 10_000


def _summary_peak(rec):
    tracemalloc.start()
    try:
        rec.summary("op")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_summary_holds_no_float_object_per_sample():
    repeating = LatencyRecorder()
    for i in range(240_000):
        repeating.record("op", 1000.0 + i % 100)
    assert _summary_peak(repeating) < 1 << 20  # a sort's list: ~9.6 MB
    # Distinct values are sorted, and the probe that chose the sort is
    # freed before the sort's list peaks.
    distinct = LatencyRecorder()
    for i in range(50_000):
        distinct.record("op", 1.0 + i * 1.5)
    tracemalloc.start()
    try:
        array("d", sorted(distinct._samples["op"]))
        sort_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _summary_peak(distinct) <= sort_peak


# ---------------------------------------------------------------------- #
# reset() audit: every mutable aggregate must be covered, reflectively,
# so adding a new counter dict without teaching reset() fails here
# ---------------------------------------------------------------------- #

def _populated_traffic() -> TrafficStats:
    st = TrafficStats()
    st.record_host_ssd(StructKind.DATA, Direction.WRITE, Interface.BLOCK, 512)
    st.record_flash(StructKind.INODE, Direction.READ, 4096)
    st.record_app(Direction.READ, 100)
    st.bump("cache_hits", 3)
    st.bump_fault("crashes", 1)
    return st


def test_traffic_reset_covers_every_aggregate_attribute():
    st = _populated_traffic()
    mutable = {
        name: val for name, val in vars(st).items()
        if isinstance(val, dict)
    }
    assert len(mutable) >= 5, "expected the five aggregate dicts"
    assert all(mutable.values()), "audit setup must populate every dict"
    st.reset()
    for name, val in vars(st).items():
        if isinstance(val, dict):
            assert val == {}, f"TrafficStats.reset() missed {name!r}"


def test_traffic_reset_then_record_starts_from_zero():
    st = _populated_traffic()
    st.reset()
    st.record_app(Direction.READ, 7)
    assert st.app[Direction.READ] == 7


def test_latency_reset_covers_samples_and_sort_cache():
    rec = LatencyRecorder()
    rec.record("op", 5.0)
    rec.record("op", 15.0)
    assert rec.percentile("op", 50) == 10.0  # populates the sort cache
    rec.reset()
    for name, val in vars(rec).items():
        if isinstance(val, dict):
            assert val == {}, f"LatencyRecorder.reset() missed {name!r}"
    assert rec.ops() == []
    assert math.isnan(rec.percentile("op", 50))
    # A stale sort cache surviving reset would surface here: the new
    # sample must be the whole distribution, not merged with the old.
    rec.record("op", 42.0)
    assert rec.percentile("op", 50) == 42.0
    assert rec.count("op") == 1
