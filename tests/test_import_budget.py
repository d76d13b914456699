"""What a command pays before it starts: the import graph has a budget.

Every ``repro`` command imports :mod:`repro.cli`, and every spawned
shard worker imports :mod:`repro.cluster.worker`, before doing anything.
Neither may pull in numpy (``src/repro`` has no third-party runtime
dependency), the stdlib HTTP stack (only ``--listen`` needs it) or the
crash-sweep driver: ``repro.telemetry`` and ``repro.faults`` resolve
those exports on first use.  A run goes on to compile only what it
builds: one file system, one firmware, a device cache only when one is
configured, the KV store only for YCSB.  Checked in a fresh
interpreter, because this process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.bench
import repro.cluster
import repro.core
import repro.devcache
import repro.faults
import repro.ssd
import repro.ssd.firmware
import repro.telemetry
import repro.workloads

SRC = Path(repro.__file__).resolve().parents[1]

#: modules an entry point must not have loaded by the time it is imported
#: (the span seam's probe table loads only for a traced run)
KEPT_OUT = (
    "numpy", "http.server", "ssl", "email",
    "repro.telemetry.server", "repro.telemetry.top", "repro.faults.sweep",
    "repro.trace.probes",
)


#: modules a bytefs run never executes, so never loads
NOT_IN_A_BYTEFS_RUN = (
    "repro.fs.f2fs", "repro.fs.nova", "repro.fs.pmfs", "repro.kv",
    "repro.workloads.ycsb", "repro.devcache.cache", "repro.faults.plan",
    "repro.faults.oracle", "repro.ssd.firmware.baseline_fw",
)


def _fresh(code: str, untraced: bool = False) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if untraced:
        # REPRO_TRACE=1 binds the span probes onto every layer class,
        # which imports them all; these checks are about a plain run.
        env.pop("REPRO_TRACE", None)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("entry", ["repro.cli", "repro.cluster.worker"])
def test_entry_point_import_stays_within_budget(entry):
    loaded = json.loads(_fresh(
        f"import json, sys, {entry}\n"
        f"print(json.dumps([m for m in {KEPT_OUT!r} if m in sys.modules]))"
    ))
    assert loaded == []


def _loaded_after(setup: str, modules) -> list:
    """The ``modules`` loaded after ``setup`` ran in a fresh, untraced
    interpreter."""
    return json.loads(_fresh(
        f"import json, sys\n{setup}\n"
        f"print(json.dumps([m for m in {tuple(modules)!r}"
        " if m in sys.modules]))",
        untraced=True,
    ))


def test_the_cli_loads_no_stack_until_a_command_builds_one():
    # the parser names and checks file systems from repro.core.config
    assert _loaded_after(
        "import repro.cli", ("repro.fs.extfs", "repro.ssd.device")
    ) == []


def test_a_bytefs_run_loads_only_what_it_builds():
    assert _loaded_after(
        "from repro.bench.harness import run_workload\n"
        "from repro.core import build_stack\n"
        "from repro.workloads import Varmail\n"
        "build_stack('bytefs')\n"
        "run_workload('bytefs', Varmail(n_files=8, n_threads=2,"
        " ops_per_thread=5))",
        NOT_IN_A_BYTEFS_RUN,
    ) == []


def test_a_stack_loads_its_own_file_system_and_cache():
    baselines = ("repro.fs.f2fs", "repro.fs.nova", "repro.fs.pmfs")
    assert _loaded_after(
        "from repro.core import build_stack\nbuild_stack('f2fs')",
        baselines + ("repro.ssd.firmware.baseline_fw",
                     "repro.ssd.firmware.bytefs_fw"),
    ) == ["repro.fs.f2fs", "repro.ssd.firmware.baseline_fw"]
    assert _loaded_after(
        "from repro.core import build_stack\n"
        "from repro.devcache.config import DevCacheConfig\n"
        "build_stack('bytefs', devcache=DevCacheConfig())",
        ("repro.devcache.cache",) + baselines,
    ) == ["repro.devcache.cache"]


def test_a_shard_worker_loads_the_shard_routine_alone():
    assert _loaded_after(
        "import repro.cluster.worker",
        ("repro.bench.harness", "repro.kv", "repro.cluster.serve",
         "repro.cluster.merge", "repro.telemetry.prom",
         "repro.faults.oracle"),
    ) == []


def test_a_serve_parent_loads_no_stack():
    # With workers, the parent spawns, routes and merges; the stacks are
    # built in the shards, which import them when they build one.
    assert _loaded_after(
        "import repro.cluster.serve, repro.cluster.worker,"
        " repro.cluster.kernel, repro.cluster.merge",
        ("repro.core.bytefs", "repro.fs.extfs", "repro.ssd.device",
         "repro.ftl", "repro.host", "repro.interconnect"),
    ) == []


@pytest.mark.parametrize(
    "package",
    [repro.bench, repro.cluster, repro.core, repro.devcache, repro.faults,
     repro.ssd, repro.ssd.firmware, repro.telemetry, repro.workloads],
    ids=lambda package: package.__name__,
)
def test_lazy_package_exports_every_name_it_lists(package):
    # In a fresh interpreter too: here an earlier test may have bound
    # the lazy names already.
    missing = json.loads(_fresh(
        f"import json, {package.__name__} as package\n"
        "print(json.dumps([name for name in package.__all__"
        " if not hasattr(package, name)]))"
    ))
    assert missing == []
    for name in package.__all__:
        assert getattr(package, name) is not None
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import nope")
