"""Cluster-level fault plans: crash a device mid-serve, then recover.

While :class:`~repro.faults.injector.FaultPlan` targets one numbered
crash *site* inside a quiescent replay (the sweep driver), a
:class:`DeviceCrash` targets one *device* of a live serving run
(:func:`repro.cluster.serve.serve_cluster`): power the shard off at a
virtual time or after a number of dispatched requests, optionally with a
torn in-flight write, then run the file system's crash-recovery path and
keep serving.  The serving loop owns the mechanics (arming the shard's
injector, the power-cycle protocol, oracle verification); this module
only describes *what* should fail, so it stays importable from anywhere
without dragging in the cluster.

The CLI syntax (``repro serve --fault ...``) is::

    crash:dev<k>@t=<seconds>[+torn]      # virtual time since epoch start
    crash:dev<k>@ops=<n>[+torn]          # after n dispatched requests

``+torn`` asks for a torn-write power loss: the in-flight mutation
persists only a prefix cut at the transport's atomicity granule (see
:meth:`FaultInjector.site`).  A crash whose trigger the run never
reaches fires at drain instead, so a planned fault always executes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

_SPEC_RE = re.compile(
    r"^crash:dev(?P<dev>\d+)@(?P<kind>t|ops)=(?P<val>[0-9.]+)"
    r"(?P<torn>\+torn)?$"
)


@dataclass(frozen=True)
class DeviceCrash:
    """Crash one device mid-serve: at ``at_s`` virtual seconds after the
    measurement epoch starts, or after ``after_ops`` dispatched requests
    (exactly one of the two must be set)."""

    device: int
    at_s: Optional[float] = None
    after_ops: Optional[int] = None
    torn: bool = False

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError("device index must be >= 0")
        if (self.at_s is None) == (self.after_ops is None):
            raise ValueError(
                "exactly one of at_s / after_ops must be set"
            )
        if self.at_s is not None and self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if self.after_ops is not None and self.after_ops < 0:
            raise ValueError("after_ops must be >= 0")

    def describe(self) -> str:
        """The CLI spec string this crash round-trips to."""
        trig = (
            f"t={self.at_s:g}" if self.at_s is not None
            else f"ops={self.after_ops}"
        )
        return f"crash:dev{self.device}@{trig}" + ("+torn" if self.torn else "")

    def to_json(self) -> Dict:
        return {
            "device": self.device,
            "at_s": self.at_s,
            "after_ops": self.after_ops,
            "torn": self.torn,
        }


def parse_fault(spec: str) -> DeviceCrash:
    """Parse one ``--fault`` spec (see module docstring for the syntax)."""
    m = _SPEC_RE.match(spec.strip())
    if m is None:
        raise ValueError(
            f"bad fault spec {spec!r}; expected "
            "'crash:dev<k>@t=<seconds>[+torn]' or "
            "'crash:dev<k>@ops=<n>[+torn]'"
        )
    device = int(m.group("dev"))
    torn = m.group("torn") is not None
    if m.group("kind") == "t":
        return DeviceCrash(device, at_s=float(m.group("val")), torn=torn)
    try:
        n = int(m.group("val"))
    except ValueError:
        raise ValueError(
            f"bad fault spec {spec!r}: ops trigger must be an integer"
        ) from None
    return DeviceCrash(device, after_ops=n, torn=torn)


def check_fault_plan(
    faults: Sequence[DeviceCrash], n_devices: int
) -> List[DeviceCrash]:
    """Validate a fault plan against a cluster size; returns it as a list.

    At most one crash per device (a shard power-cycles once per run),
    and every target must exist.
    """
    seen: Dict[int, DeviceCrash] = {}
    for f in faults:
        if not 0 <= f.device < n_devices:
            raise ValueError(
                f"fault {f.describe()!r} targets device {f.device}, but "
                f"the cluster has {n_devices} device(s)"
            )
        if f.device in seen:
            raise ValueError(
                f"device {f.device} has more than one planned crash"
            )
        seen[f.device] = f
    return list(faults)


def plan_by_device(
    faults: Sequence[DeviceCrash],
) -> Dict[int, DeviceCrash]:
    """Index a (checked) fault plan by target device.

    The shard routine keys runtime fault state this way;
    :func:`check_fault_plan` guarantees at most one crash per device,
    so the mapping is lossless.
    """
    return {f.device: f for f in faults}
