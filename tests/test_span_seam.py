"""The span seam: layer-boundary spans come from one declaration table.

(a) pins the span paths no other trace pin reaches — f2fs, nova and pmfs
traced, FTL garbage collection, ByteFS log cleaning and the ext4 crash
path — by the sha256 of their JSONL export, taken on the tree whose
layers still opened these spans by hand.  (b) holds the seam to its
contract: every declaration names a method whose signature its
attribute function binds, and a stack runs the plain methods unless it
was built inside :func:`repro.trace.probes.bound`.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
from contextlib import nullcontext

import pytest

from repro.bench.harness import run_workload
from repro.core.bytefs import build_stack
from repro.fs.vfs import O_CREAT, O_RDWR
from repro.interconnect.link import HostLink
from repro.nand.geometry import FlashGeometry
from repro.trace import tracer as trace
from repro.trace.export import to_jsonl
from repro.trace.probes import PROBES, bound
from repro.trace.tracer import Tracer
from repro.workloads.filebench import OLTP, Fileserver, Varmail
from tests.conftest import SMALL_GEOMETRY

# ---------------------------------------------------------------------- #
# (a) span paths: goldens of the parent commit
# ---------------------------------------------------------------------- #

#: 4 MB: a few dozen OLTP ops per thread wrap it and garbage-collect
TINY_GEOMETRY = FlashGeometry(
    n_channels=2, ways_per_channel=1, blocks_per_way=16, pages_per_block=32,
    page_size=4096,
)


def traced_run(fs_name, make_workload, **kw):
    """A case: the tracer of one traced run on a fresh workload."""
    return lambda: run_workload(
        fs_name, make_workload(), traced=True, **kw
    ).trace


def small_fileserver(fs_name):
    """Fileserver with a host cache small enough that it reads back."""
    return traced_run(
        fs_name,
        lambda: Fileserver(n_files=6, n_threads=2, ops_per_thread=3, seed=7),
        geometry=SMALL_GEOMETRY, page_cache_pages=16,
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


#: name -> (traced case, the (layer, op) spans it exists for)
CASES = {
    "f2fs": (
        small_fileserver("f2fs"),
        {("firmware", "block_read"), ("firmware", "block_write")},
    ),
    "nova": (
        small_fileserver("nova"),
        {("firmware", "byte_read"), ("firmware", "byte_write")},
    ),
    "pmfs": (
        small_fileserver("pmfs"),
        {("firmware", "byte_read"), ("firmware", "byte_write")},
    ),
    "ftl-gc": (
        traced_run(
            "ext4",
            lambda: OLTP(
                n_threads=2, ops_per_thread=60, file_size=256 << 10, seed=7
            ),
            geometry=TINY_GEOMETRY, page_cache_pages=16,
        ),
        {("ftl", "gc")},
    ),
    "log-clean": (
        traced_run(
            "bytefs",
            lambda: Varmail(n_files=8, n_threads=2, ops_per_thread=6, seed=7),
            geometry=SMALL_GEOMETRY, log_bytes=16 << 10,
        ),
        {("firmware", "log_clean")},
    ),
    "ext4-crash": (
        ext4_crash,
        {("firmware", "recover"), ("journal", "replay")},
    ),
}

#: taken on 6c922fa, where every layer opened these spans itself, by
#: running the cases above with that tree on ``sys.path``
PARENT_SHA256 = {
    "ext4-crash":
        "193b0c1dfa16b6364ad2522439cca8a7f4bcdb36552f04508af8859760d38b92",
    "f2fs":
        "77882a43bed478ca577d41071d9f6aad66dd6f971579b736c53bd31ae13bdb36",
    "ftl-gc":
        "ba3934920a00404f2d263211753186e2674a1d70fd78fd7fcf6724347688d09a",
    "log-clean":
        "f3ce6dc40361fb08c6bad30319991a87fb1cab587a857fe0d6e7d319d9bd0df3",
    "nova":
        "72ed4d2f58a8ff7a4a2ccd26d76052744f90065337bb949cc8f11e1bba78eb5e",
    "pmfs":
        "d0967deceb6c8386cd6a6ddb3daebdb3392a996f7bdb755084ac264dcc9c34f5",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_span_path_matches_parent_golden(name):
    run, wanted = CASES[name]
    tracer = run()
    assert wanted <= {(s.layer, s.op) for s in tracer.spans}
    text = to_jsonl(tracer, {"case": name})
    assert hashlib.sha256(text.encode()).hexdigest() == PARENT_SHA256[name]


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
