"""AST lint passes: every rule fires on a seeded fixture, suppressions
work, and the real tree lints clean.

Fixtures are laid out under ``tmp_path/repro/...`` because the passes
derive dotted module names from the last ``repro`` path component —
layer membership (CS001/LAY001) and exemptions hang off that name.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.findings import RULES
from repro.analysis.linter import lint_paths, module_name_for
from repro.cli import main


def _lint(tmp_path: Path, relpath: str, source: str, rules=()):
    f = tmp_path / relpath
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], rules)


def _rule_ids(result):
    return [f.rule for f in result.findings]


# ---------------------------------------------------------------------- #
# module naming
# ---------------------------------------------------------------------- #

def test_module_name_from_path():
    assert module_name_for(Path("src/repro/fs/vfs.py")) == "repro.fs.vfs"
    assert module_name_for(Path("src/repro/fs/__init__.py")) == "repro.fs"
    assert module_name_for(Path("/x/repro/sim/clock.py")) == "repro.sim.clock"
    assert module_name_for(Path("scratch.py")) == "scratch"


# ---------------------------------------------------------------------- #
# DET001 — wall clock
# ---------------------------------------------------------------------- #

def test_det001_flags_wall_clock(tmp_path):
    res = _lint(tmp_path, "repro/bench/t.py", """\
        import time
        from datetime import datetime

        def stamp():
            a = time.time()
            b = datetime.now()
            return a, b
    """)
    assert _rule_ids(res) == ["DET001", "DET001"]
    assert res.exit_code == 1


def test_det001_allows_sim_clock_module(tmp_path):
    res = _lint(tmp_path, "repro/sim/clock.py", """\
        import time

        def now():
            return time.time()
    """)
    assert _rule_ids(res) == []


def test_det001_blessed_clock_consumer_covers_trace_package(tmp_path):
    """repro.trace is registered as a clock consumer: the whole package
    (submodules included) is exempt without per-site suppressions."""
    res = _lint(tmp_path, "repro/trace/probe.py", """\
        import time

        def stamp():
            return time.time()
    """)
    assert _rule_ids(res) == []


def test_det001_consumer_prefix_does_not_leak_to_siblings(tmp_path):
    """Only the registered package is blessed — a sibling module whose
    name merely starts with the same characters still gets flagged."""
    res = _lint(tmp_path, "repro/tracery.py", """\
        import time

        def stamp():
            return time.time()
    """)
    assert _rule_ids(res) == ["DET001"]


def test_det001_resolves_import_aliases(tmp_path):
    res = _lint(tmp_path, "repro/bench/t.py", """\
        import time as walltime

        def f():
            return walltime.perf_counter()
    """)
    assert _rule_ids(res) == ["DET001"]


# ---------------------------------------------------------------------- #
# DET002 — ambient randomness
# ---------------------------------------------------------------------- #

def test_det002_flags_module_level_random(tmp_path):
    res = _lint(tmp_path, "repro/ftl/t.py", """\
        import random

        def pick(xs):
            return random.choice(xs)
    """)
    assert _rule_ids(res) == ["DET002"]


def test_det002_flags_random_construction(tmp_path):
    res = _lint(tmp_path, "repro/workloads/t.py", """\
        import os
        from random import Random

        def gen():
            r = Random(42)
            return r.random() + len(os.urandom(8))
    """)
    assert _rule_ids(res) == ["DET002", "DET002"]


def test_det002_allows_rng_module_and_seeded_streams(tmp_path):
    res = _lint(tmp_path, "repro/sim/rng.py", """\
        import random

        def make_rng(seed, label):
            return random.Random(seed)
    """)
    assert _rule_ids(res) == []
    res = _lint(tmp_path, "repro/workloads/u.py", """\
        from repro.sim.rng import make_rng

        def gen():
            return make_rng(0, "gen").random()
    """)
    assert "DET002" not in _rule_ids(res)


# ---------------------------------------------------------------------- #
# DET003 — unordered-set iteration
# ---------------------------------------------------------------------- #

def test_det003_flags_set_iteration(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def drain(xs):
            pending = set(xs)
            for x in pending:
                print(x)
            return [y for y in {1, 2, 3}]
    """)
    assert _rule_ids(res) == ["DET003", "DET003"]


def test_det003_allows_sorted_iteration(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def drain(xs):
            pending = set(xs)
            for x in sorted(pending):
                print(x)
    """)
    assert _rule_ids(res) == []


# ---------------------------------------------------------------------- #
# LAY001 — layering
# ---------------------------------------------------------------------- #

def test_lay001_flags_host_importing_device_internals(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        from repro.ftl.mapping import PageMap
        import repro.nand.chip
    """)
    assert _rule_ids(res) == ["LAY001", "LAY001"]


def test_lay001_allows_config_dataclasses_and_device_modules(tmp_path):
    res = _lint(tmp_path, "repro/core/t.py", """\
        from repro.ssd.device import MSSD, MSSDConfig
        from repro.ssd.firmware.bytefs_fw import ByteFSFirmwareConfig
        from repro.nand.geometry import FlashGeometry
    """)
    assert _rule_ids(res) == []


def test_lay001_ignores_device_side_modules(tmp_path):
    res = _lint(tmp_path, "repro/ssd/t.py", """\
        from repro.ftl.mapping import PageMap
    """)
    assert "LAY001" not in _rule_ids(res)


# ---------------------------------------------------------------------- #
# PERF001 — per-page device ops inside loops
# ---------------------------------------------------------------------- #

def test_perf001_flags_per_page_loop(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def flush(dev, blocks):
            for b in blocks:
                dev.trim(b)
        def drain(dev, pages):
            return [dev.write_page(p) for p in pages]
    """)
    assert _rule_ids(res) == ["PERF001", "PERF001"]


def test_perf001_flags_single_page_writes_in_a_loop(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def checkpoint(dev, pending, kind):
            for blkno, image in pending:
                dev.write_blocks(blkno, image, kind)
        def flush(fs, pages, txid):
            for ino, pidx, page in pages:
                fs._writeback_page(ino, pidx, page, txid)
        def in_runs(dev, fs, pages, batches, kind, txid):
            dev.write_blocks(0, b"", kind)
            for batch in batches:
                dev.write_pages(pages, kind)
                fs._writeback_pages(batch, txid)
    """)
    assert _rule_ids(res) == ["PERF001", "PERF001"]


def test_perf001_allows_ranged_trim_and_straightline_calls(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def flush(dev, runs):
            for start, n in runs:
                dev.trim(start, n)
            dev.trim(0)
            dev.block_write(0, b"")
    """)
    assert _rule_ids(res) == []


def test_perf001_suppression(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def migrate(dev, pages):
            for lpa, data in pages:
                dev.write_page(lpa, data)  # repro: allow[PERF001]
    """)
    assert _rule_ids(res) == []


# ---------------------------------------------------------------------- #
# PERF002 — imports inside stack-layer function bodies
# ---------------------------------------------------------------------- #

_PERF002_FIXTURE = """\
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        from repro.fs.extfs import ExtFS

    class FS:
        def open(self, path):
            from repro.fs.errors import FileExists{allow}
            import struct{allow}
            return path

    def build():
        if TYPE_CHECKING:
            import typing
        return lambda: __import__("os")
"""


def test_perf002_flags_function_level_imports(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", _PERF002_FIXTURE.format(allow=""))
    assert _rule_ids(res) == ["PERF002", "PERF002"]
    assert [f.line for f in res.findings] == [8, 9]


def test_perf002_suppression(tmp_path):
    res = _lint(
        tmp_path, "repro/cluster/kernel.py",
        _PERF002_FIXTURE.format(allow="  # repro: allow[PERF002]"),
    )
    assert _rule_ids(res) == []


def test_perf002_only_polices_the_stack_layers(tmp_path):
    # repro.cli imports lazily on purpose (start-up time); repro.cluster
    # is policed module by module, and serve.py is not on the op path.
    for relpath in ("repro/cli.py", "repro/cluster/serve.py"):
        res = _lint(tmp_path, relpath, _PERF002_FIXTURE.format(allow=""))
        assert _rule_ids(res) == []
        (tmp_path / relpath).unlink()


# ---------------------------------------------------------------------- #
# CS001 — crash-site registration
# ---------------------------------------------------------------------- #

def test_cs001_flags_unregistered_mutation(tmp_path):
    res = _lint(tmp_path, "repro/ssd/t.py", """\
        class FW:
            def rogue(self):
                self.ftl.write_page(0, b"", None)
    """)
    assert _rule_ids(res) == ["CS001", "CS002"]


def test_cs001_allows_site_wrapped_mutation(tmp_path):
    res = _lint(tmp_path, "repro/ssd/t.py", """\
        class FW:
            def ok(self, data):
                def _apply(k):
                    self.ftl.write_page(0, data[:k], None)
                self.faults.site("fw.ok", _apply, len(data), atom=64)
    """)
    assert _rule_ids(res) == []


def test_cs001_guardedness_propagates_through_callers(tmp_path):
    res = _lint(tmp_path, "repro/ssd/t.py", """\
        class FW:
            def entry(self):
                self.faults.point("fw.entry")
                self._helper()

            def _helper(self):
                self.ftl.write_page(0, b"", None)
    """)
    assert _rule_ids(res) == []


def test_cs001_one_unguarded_caller_poisons_helper(tmp_path):
    res = _lint(tmp_path, "repro/ssd/t.py", """\
        class FW:
            def entry(self):
                self.faults.point("fw.entry")
                self._helper()

            def bypass(self):
                self._helper()

            def _helper(self):
                self.ftl.write_page(0, b"", None)
    """)
    assert _rule_ids(res) == ["CS001", "CS002"]
    # the chain names the unguarded entry, not the guarded one
    chain = [f for f in res.findings if f.rule == "CS002"][0]
    assert "FW.bypass() -> FW._helper()" in chain.message


def test_cs001_ignores_non_stack_modules(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        class FS:
            def f(self):
                self.device.byte_write(0, 0, b"")
    """)
    assert "CS001" not in _rule_ids(res)


def test_cs001_skips_bare_name_calls(tmp_path):
    # dataclasses.replace() is not a device mutation.
    res = _lint(tmp_path, "repro/nand/t.py", """\
        from dataclasses import replace

        def tweak(cfg):
            return replace(cfg, page_size=8192)
    """)
    assert _rule_ids(res) == []


# ---------------------------------------------------------------------- #
# suppressions
# ---------------------------------------------------------------------- #

def test_same_line_suppression(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def drain(xs):
            pending = set(xs)
            for x in pending:  # repro: allow[DET003]
                print(x)
    """)
    assert _rule_ids(res) == []


def test_standalone_comment_suppresses_next_line(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def drain(xs):
            pending = set(xs)
            # repro: allow[DET003]
            for x in pending:
                print(x)
    """)
    assert _rule_ids(res) == []


def test_suppression_is_rule_specific(tmp_path):
    res = _lint(tmp_path, "repro/fs/t.py", """\
        def drain(xs):
            pending = set(xs)
            for x in pending:  # repro: allow[DET001]
                print(x)
    """)
    assert _rule_ids(res) == ["DET003"]


def test_cs001_def_line_exemption_covers_whole_function(tmp_path):
    res = _lint(tmp_path, "repro/ssd/t.py", """\
        class FW:
            def recover(self):  # repro: allow[CS001]
                self.ftl.write_page(0, b"", None)
                self.ftl.write_page(1, b"", None)
    """)
    assert _rule_ids(res) == []


def test_cs001_exempt_function_does_not_poison_callees(tmp_path):
    res = _lint(tmp_path, "repro/ssd/t.py", """\
        class FW:
            def entry(self):
                self.faults.point("fw.entry")
                self._helper()

            def recover(self):  # repro: allow[CS001]
                self._helper()

            def _helper(self):
                self.ftl.write_page(0, b"", None)
    """)
    assert _rule_ids(res) == []


# ---------------------------------------------------------------------- #
# driver behaviour
# ---------------------------------------------------------------------- #

def test_every_rule_id_has_a_firing_fixture():
    """RULES and the fixtures (here + tests/test_whole_program_lint.py)
    must stay in sync."""
    assert set(RULES) == {
        "CS001", "CS002", "CONC001", "CONC002", "CONC003",
        "DET001", "DET002", "DET003", "LAY001", "PERF001", "PERF002",
    }


def test_syntax_error_reported_not_crashed(tmp_path):
    res = _lint(tmp_path, "repro/fs/broken.py", "def f(:\n")
    assert res.findings == []
    assert len(res.errors) == 1
    assert res.exit_code == 2


def test_rule_filter(tmp_path):
    (tmp_path / "repro" / "fs").mkdir(parents=True)
    (tmp_path / "repro" / "fs" / "t.py").write_text(textwrap.dedent("""\
        import time

        def f(xs):
            s = set(xs)
            for x in s:
                time.time()
    """))
    only_det1 = lint_paths([tmp_path], ["DET001"])
    assert _rule_ids(only_det1) == ["DET001"]
    with pytest.raises(ValueError):
        lint_paths([tmp_path], ["NOPE99"])


def test_lint_clean_on_real_tree():
    """The repo's own stack must lint clean — the CI gate relies on it."""
    res = lint_paths([Path(repro.__file__).parent])
    assert res.errors == []
    assert res.findings == [], "\n".join(f.format() for f in res.findings)


def _positioning_sleeps(source: str):
    """Line numbers of ``time.sleep`` calls that could decide *where* in
    a protocol a test acts: in a module that calls ``os.kill``, a sleep
    may only poll (a literal argument of at most 50 ms)."""
    if "os.kill(" not in source:
        return []
    lines = []
    for n, line in enumerate(source.splitlines(), 1):
        for arg in re.findall(r"time\.sleep\(([^)]*)\)", line):
            try:
                polls = float(arg) <= 0.05
            except ValueError:
                polls = False
            if not polls:
                lines.append(n)
    return lines


def test_process_edge_tests_position_kills_on_protocol_events():
    """A kill positioned by wall clock lands on a different protocol
    edge on every host and after every perf PR (it went red twice)."""
    planted = "os.kill(pid, 9)\ntime.sleep(0.01)\ntime.sleep(1.0)\n"
    assert _positioning_sleeps(planted) == [3]
    assert _positioning_sleeps("time.sleep(1.0)\n") == []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path != Path(__file__):  # the planted defect above
            assert _positioning_sleeps(path.read_text()) == [], path


def test_cluster_package_is_registered_with_every_pass():
    """repro.cluster sits on the host side of the boundary, runs inside
    the crash-site-guarded stack, and legitimately reads the virtual
    clock — dropping any registration would silently shrink coverage."""
    from repro.analysis.crashsites import STACK_PREFIXES
    from repro.analysis.determinism import DET001_CONSUMERS
    from repro.analysis.layering import HOST_PREFIXES

    assert "repro.cluster" in STACK_PREFIXES
    assert "repro.cluster" in DET001_CONSUMERS
    assert "repro.cluster" in HOST_PREFIXES


def test_telemetry_package_is_registered_with_every_pass():
    """repro.telemetry is host-side code (reads devices only through
    MSSD.gauges()), a blessed clock consumer (every row is stamped with
    a virtual-time boundary), and serve-reachable (the sampler runs
    inside the serve loop) — dropping any registration would silently
    shrink lint coverage over the new subsystem."""
    from repro.analysis.concurrency import SERVE_ROOTS
    from repro.analysis.determinism import DET001_CONSUMERS
    from repro.analysis.layering import HOST_PREFIXES

    assert "repro.telemetry" in DET001_CONSUMERS
    assert "repro.telemetry" in HOST_PREFIXES
    assert "repro.telemetry" in SERVE_ROOTS


def test_parallel_serving_modules_are_registered_with_every_pass():
    """The process-parallel serving modules (shard kernel, worker,
    reducer) ride on the ``repro.cluster`` prefix registrations: they
    must be serve-reachable (CONC rules), blessed clock consumers (the
    worker orchestrator times the drain phase), host-side (LAY001), and
    stack-guarded (crash sites fire inside the shard drain).  If they
    ever move out of the package, this pins that the registries must
    move with them."""
    from repro.analysis.concurrency import SERVE_ROOTS
    from repro.analysis.crashsites import STACK_PREFIXES
    from repro.analysis.determinism import DET001_CONSUMERS, _module_in
    from repro.analysis.layering import HOST_PREFIXES

    for mod in ("repro.cluster.kernel", "repro.cluster.worker",
                "repro.cluster.merge"):
        assert _module_in(mod, SERVE_ROOTS)
        assert _module_in(mod, DET001_CONSUMERS)
        assert _module_in(mod, HOST_PREFIXES)
        assert _module_in(mod, STACK_PREFIXES)


def test_devcache_package_is_registered_with_every_pass():
    """repro.devcache is device-internal (host code may import only its
    DevCacheConfig across the boundary) and sits inside the
    crash-site-guarded stack (dirty write-back issues the same mutation
    primitives as firmware).  Dropping either registration would let an
    unguarded eviction path or a host-side import of DeviceCache slip
    through the lint gate unnoticed."""
    from repro.analysis.crashsites import STACK_PREFIXES
    from repro.analysis.determinism import _module_in
    from repro.analysis.layering import DEVICE_INTERNAL_PREFIXES, HOST_PREFIXES

    assert "repro.devcache" in STACK_PREFIXES
    assert "repro.devcache" in DEVICE_INTERNAL_PREFIXES
    # the cache tier lives behind the firmware: it must never be
    # registered as host-side code
    for mod in ("repro.devcache", "repro.devcache.cache",
                "repro.devcache.policy", "repro.devcache.prefetch"):
        assert not _module_in(mod, HOST_PREFIXES)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #

def test_cli_lint_clean_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_lint_reports_findings_and_exits_nonzero(tmp_path, capsys):
    f = tmp_path / "repro" / "fs" / "t.py"
    f.parent.mkdir(parents=True)
    f.write_text("def f(xs):\n    for x in set(xs):\n        print(x)\n")
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET003" in out and "t.py:2" in out


def test_cli_lint_json_format(tmp_path, capsys):
    f = tmp_path / "repro" / "ftl" / "t.py"
    f.parent.mkdir(parents=True)
    f.write_text("import random\n\ndef f():\n    return random.random()\n")
    assert main(["lint", str(tmp_path), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert [x["rule"] for x in payload["findings"]] == ["DET002"]
    assert payload["findings"][0]["line"] == 4
