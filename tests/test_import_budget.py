"""What a command pays before it starts: the import graph has a budget.

Every ``repro`` command imports :mod:`repro.cli`, and every spawned
shard worker imports :mod:`repro.cluster.worker`, before doing anything.
Neither may pull in numpy (``src/repro`` has no third-party runtime
dependency), the stdlib HTTP stack (only ``--listen`` needs it) or the
crash-sweep driver: ``repro.telemetry`` and ``repro.faults`` resolve
those exports on first use.  Checked in a fresh interpreter, because
this process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.faults
import repro.telemetry

SRC = Path(repro.__file__).resolve().parents[1]

#: modules an entry point must not have loaded by the time it is imported
#: (the span seam's probe table loads only for a traced run)
KEPT_OUT = (
    "numpy", "http.server", "ssl", "email",
    "repro.telemetry.server", "repro.telemetry.top", "repro.faults.sweep",
    "repro.trace.probes",
)


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
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


@pytest.mark.parametrize("package", [repro.telemetry, repro.faults],
                         ids=lambda package: package.__name__)
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
