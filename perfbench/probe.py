"""Outside-in wall-time attribution for the ByteFS stack.

Nothing in ``src/repro`` knows about this file.  :func:`install` replaces
the methods of each layer's boundary classes with timing wrappers; a
wrapper opens a span only when the caller sits in a *different* layer
(the outermost entry into a layer is the boundary, calls that stay
inside it run the original with one comparison of overhead).  On close a
span's self time -- its duration minus the time its child spans covered
-- is folded into a ``(caller layer -> layer.function)`` table.

Install **before** ``build_stack``: ``MSSD``, ``FTL`` and ``HostLink``
hoist bound methods in ``__init__`` (``self._mmio_write =
self.link.mmio_write``, ``self._program_page = flash.program_page``), so
patching an instance after construction silently misses exactly the
hottest calls.  Patching the class first makes the hoisted bound method
the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from typing import Callable, Dict, List, Tuple

#: layer -> (module, class) boundary classes; subclasses defined anywhere
#: under ``repro`` are wrapped too (ExtFS, ByteFS, F2FS, ... for the VFS).
LAYER_CLASSES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "fs": (("repro.fs.vfs", "BaseFileSystem"),),
    "host": (
        ("repro.host.page_cache", "PageCache"),
        ("repro.host.mmap", "MappedRegion"),
    ),
    "interconnect": (("repro.interconnect.link", "HostLink"),),
    "ssd": (("repro.ssd.device", "MSSD"),),
    "ssd.firmware": (
        ("repro.ssd.firmware.bytefs_fw", "ByteFSFirmware"),
        ("repro.ssd.firmware.baseline_fw", "BaselineFirmware"),
    ),
    "devcache": (("repro.devcache.cache", "DeviceCache"),),
    "ftl": (("repro.ftl.ftl", "FTL"),),
    "nand": (("repro.nand.chip", "FlashArray"),),
    "sim": (
        ("repro.sim.resources", "Resource"),
        ("repro.sim.resources", "ChannelArray"),
        ("repro.sim.resources", "Pipeline"),
    ),
}

#: the cluster layer is module-level functions, not classes
CLUSTER_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("repro.cluster.kernel", "serve_device"),
    ("repro.cluster.kernel", "setup_tenant"),
    ("repro.cluster.kernel", "run_device_drain"),
    ("repro.cluster.worker", "run_shard_workers"),
    ("repro.cluster.merge", "merge_shard_results"),
)

#: modules that define VFS subclasses; imported so ``__subclasses__`` sees
#: them before the wrappers go on
_FS_MODULES = (
    "repro.fs.extfs", "repro.fs.f2fs", "repro.fs.nova", "repro.fs.pmfs",
    "repro.core.bytefs",
)

#: the layer every unattributed second falls to: workload generators and
#: the harness loop that drives them
ROOT = "workloads"

_perf = time.perf_counter

#: span stack of [layer, seconds covered by child spans]
_stack: List[list] = [[ROOT, 0.0]]
#: (layer, function, {caller layer: [calls, self seconds]}) per wrapper
_rows: List[Tuple[str, str, Dict[str, list]]] = []


def _timed(layer: str, name: str, fn: Callable) -> Callable:
    rows: Dict[str, list] = {}
    _rows.append((layer, name, rows))
    stack = _stack

    @functools.wraps(fn)  # keeps the signature visible to inspect
    def wrapper(*args, **kwargs):
        top = stack[-1]
        if top[0] is layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _perf() - t0
            stack.pop()
            top[1] += dur
            row = rows.get(top[0])
            if row is None:
                rows[top[0]] = [1, dur - frame[1]]
            else:
                row[0] += 1
                row[1] += dur - frame[1]

    return wrapper


def _all_subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_all_subclasses(sub))
    return out


def _wrap_class(layer: str, cls: type) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("__") or not isinstance(attr, types.FunctionType):
            continue
        if inspect.isgeneratorfunction(attr):
            # a generator's work happens in next(), not in the call
            continue
        setattr(cls, name, _timed(layer, name, attr))


def replace_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module global that *is* ``original``.

    ``repro.cluster.serve`` does ``from repro.cluster.kernel import
    run_device_drain``; patching only the defining module would leave
    that copy of the name pointing at the unwrapped function.
    """
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                n += 1
    return n


def install() -> None:
    """Wrap every boundary class and cluster function (idempotent)."""
    if _rows:
        return
    for mod_name in _FS_MODULES:
        importlib.import_module(mod_name)
    for layer, classes in LAYER_CLASSES.items():
        for mod_name, cls_name in classes:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for sub in _all_subclasses(cls):
                _wrap_class(layer, sub)
    for mod_name, fn_name in CLUSTER_FUNCTIONS:
        fn = getattr(importlib.import_module(mod_name), fn_name)
        replace_everywhere(fn, _timed("cluster", fn_name, fn))


def reset() -> None:
    """Zero the tables: called at the measurement epoch."""
    for _layer, _name, rows in _rows:
        rows.clear()
    for frame in _stack:
        frame[1] = 0.0


def snapshot() -> Dict:
    """The tables as JSON-ready data (call at measure-end).

    ``layers`` maps layer -> {self_wall_s, calls}; ``edges`` lists every
    ``caller -> layer.function`` row, largest self time first;
    ``covered_wall_s`` is the time under spans opened from outside every
    layer, which the layers' self times must add up to.
    """
    layers: Dict[str, Dict[str, float]] = {}
    edges = []
    for layer, name, rows in _rows:
        for caller, (calls, self_s) in rows.items():
            agg = layers.setdefault(layer, {"self_wall_s": 0.0, "calls": 0})
            agg["self_wall_s"] += self_s
            agg["calls"] += calls
            edges.append({
                "caller": caller, "layer": layer, "function": name,
                "calls": calls, "self_wall_s": self_s,
            })
    edges.sort(key=lambda e: -e["self_wall_s"])
    return {
        "layers": layers, "edges": edges, "covered_wall_s": _stack[0][1],
    }
