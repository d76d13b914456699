"""The span seam: layer-boundary spans come from one declaration table.

(a) checks the span paths no other trace pin reaches — f2fs, nova and
pmfs traced, FTL garbage collection, ByteFS log cleaning and the ext4
crash path — the ``span/*`` rows of tests/test_pins.py.  (b) holds the
seam to its contract: every declaration names a method whose signature
its attribute function binds, and a stack runs the plain methods unless
it was built inside :func:`repro.trace.probes.bound`.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import nullcontext

import pytest

from repro.bench.harness import run_workload
from repro.core.bytefs import build_stack
from repro.devcache import DevCacheConfig
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.interconnect.link import HostLink
from repro.sim.clock import VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.stats.traffic import StructKind, TrafficStats
from repro.trace import tracer as trace
from repro.trace.probes import PROBES, bound
from repro.trace.tracer import Tracer
from repro.workloads.filebench import Varmail
from tests.conftest import SMALL_GEOMETRY
from tests.test_pins import check, rows

# ---------------------------------------------------------------------- #
# (a) span paths: the span rows of the pin table
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("name", rows("span/"))
def test_span_path_matches_parent_golden(pytestconfig, name):
    check(pytestconfig, f"span/{name}")


# ---------------------------------------------------------------------- #
# (b) the declarations and what binds them
# ---------------------------------------------------------------------- #

def declared():
    """``(probe, class, the function the class holds now)`` per probe."""
    for probe in PROBES:
        cls = getattr(importlib.import_module(probe.module), probe.cls)
        yield probe, cls, vars(cls)[probe.method]


def shape(fn):
    """What a call binds to: parameter names, kinds and which are
    optional."""
    return [
        (p.name, p.kind, p.default is p.empty)
        for p in inspect.signature(fn).parameters.values()
    ]


def current():
    return {(cls, probe.method): fn for probe, cls, fn in declared()}


def test_every_declaration_names_a_method_its_attrs_bind():
    assert len(PROBES) == len({(p.module, p.cls, p.method, p.op)
                               for p in PROBES})
    for probe, _cls, method in declared():
        assert inspect.isfunction(method)
        assert method.__qualname__ == f"{probe.cls}.{probe.method}"
        if probe.attrs is not None:
            assert shape(probe.attrs) == shape(method), probe


def test_an_untraced_stack_runs_the_plain_methods(monkeypatch):
    monkeypatch.setattr(trace, "AUTO", False)
    plain = current()
    for (cls, name), fn in plain.items():
        assert not hasattr(fn, "__wrapped__"), f"{cls.__name__}.{name}"
    run_workload("bytefs", Varmail(n_files=4, n_threads=1, ops_per_thread=2),
                 geometry=SMALL_GEOMETRY)
    assert current() == plain
    with bound():
        assert all(fn is not plain[key] for key, fn in current().items())
    result = run_workload(
        "bytefs", Varmail(n_files=4, n_threads=1, ops_per_thread=2),
        geometry=SMALL_GEOMETRY, traced=True,
    )
    assert {s.layer for s in result.trace.spans} >= {
        "vfs", "device", "link", "firmware", "ftl",
    }
    assert current() == plain
    # what MSSD hoisted at build time is the plain method too
    _clock, _stats, device, _fs = build_stack(
        "bytefs", geometry=SMALL_GEOMETRY
    )
    assert device._mmio_write.__func__ is HostLink.mmio_write


def fsync_spans(build_bound: bool, run_bound: bool) -> set:
    """The (layer, op) spans of a traced write + fsync on a hand-built
    stack."""
    with bound() if build_bound else nullcontext():
        clock, _stats, _device, fs = build_stack(
            "bytefs", geometry=SMALL_GEOMETRY
        )
    tracer = Tracer(clock)
    with bound() if run_bound else nullcontext(), \
            trace.activated(tracer):
        fd = fs.open("/f", O_CREAT | O_RDWR)
        fs.pwrite(fd, 0, b"x" * 100)
        fs.fsync(fd)
    return {(s.layer, s.op) for s in tracer.spans}


def test_a_stack_is_traced_only_when_built_and_run_inside_bound():
    hoisted = ("link", "mmio_write")  # MSSD binds it in __init__
    boundary = {("vfs", "fsync"), ("device", "store"), hoisted}
    # Unbound, only the spans the layers keep inline are recorded.
    assert not {layer for layer, _op in fsync_spans(False, False)} & {
        "vfs", "device", "link", "firmware",
    }
    # Bound after the build: the class lookups are spanned, the
    # methods MSSD hoisted at build time are not.
    late = fsync_spans(False, True)
    assert ("vfs", "fsync") in late and ("device", "store") in late
    assert hoisted not in late
    assert boundary <= fsync_spans(True, True)


def test_a_devcache_hit_has_no_ftl_child():
    """A device-DRAM hit is billed to the cache, not to the flash: its
    span has no ``ftl`` child, where a miss nests the flash read.  A
    page written through the cache is spanned inside the firmware's
    span for it."""
    clock, stats = VirtualClock(1), TrafficStats()
    with bound():
        device = MSSD(MSSDConfig(
            geometry=SMALL_GEOMETRY, firmware="bytefs",
            devcache=DevCacheConfig(cache_bytes=2 * 4096),
        ), clock, stats)
    tracer = Tracer(clock)
    with bound(), trace.activated(tracer):
        for lba in range(10, 14):
            device.write_blocks(lba, bytes([lba]) * 4096, StructKind.DATA)
        device.read_blocks(10, 1, StructKind.DATA)  # 10 was evicted
        device.read_blocks(10, 1, StructKind.DATA)
    spans = {s.span_id: s for s in tracer.spans}

    def under(span):
        return {s.layer for s in spans.values() if s.parent_id == span.span_id}

    reads = [s for s in spans.values()
             if (s.layer, s.op) == ("devcache", "read_page")]
    assert [under(read) for read in reads] == [{"ftl"}, set()]
    assert device.devcache.hits == 1
    writes = [s for s in spans.values()
              if (s.layer, s.op) == ("devcache", "write_page")]
    assert [(spans[s.parent_id].layer, spans[s.parent_id].op)
            for s in writes] == [("firmware", "block_write")] * 4
