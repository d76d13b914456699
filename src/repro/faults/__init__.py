"""Crash-point fault injection and oracle-checked crash consistency.

The subsystem has three layers:

* :mod:`repro.faults.injector` — numbered crash sites hooked into every
  device-visible mutation (MMIO stores, NVMe block writes, ``COMMIT``,
  firmware log appends and log-clean steps), with torn-write injection;
* :mod:`repro.faults.oracle` — a trivially-correct in-memory oracle file
  system that tracks the durable prefix (fsync barriers) and decides
  whether a recovered file system is admissible;
* :mod:`repro.faults.sweep` — the driver: enumerate every crash point a
  workload reaches, then re-run the workload crashing at each point,
  remount, and check the recovery against the oracle;
* :mod:`repro.faults.plan` — cluster-level fault plans
  (:class:`DeviceCrash`): crash a whole device mid-serve at a virtual
  time or op count, executed by :func:`repro.cluster.serve.serve_cluster`
  (``repro serve --fault``).

See ``docs/FAULTS.md`` for the numbering scheme, the oracle semantics,
and how to reproduce a single failing crash point.
"""

from repro._lazy import lazy_exports
from repro.faults.injector import (
    NULL_INJECTOR,
    CrashPoint,
    FaultInjector,
    FaultPlan,
    FiredCrash,
)

# Resolved on first use: every device imports the injector; only a crash
# sweep or a faulted serve device needs the oracle, only a crash sweep
# the sweep driver, and only a serve run the cluster fault plans.
__getattr__ = lazy_exports(globals(), {
    "repro.faults.oracle": ("OracleFS",),
    "repro.faults.plan": ("DeviceCrash", "check_fault_plan", "parse_fault"),
    "repro.faults.sweep": (
        "CrashResult", "SweepConfig", "SweepReport", "enumerate_sites",
        "run_crash", "run_sweep", "standard_workload",
    ),
})

__all__ = [
    "CrashPoint",
    "CrashResult",
    "DeviceCrash",
    "FaultInjector",
    "FaultPlan",
    "FiredCrash",
    "NULL_INJECTOR",
    "OracleFS",
    "SweepConfig",
    "SweepReport",
    "check_fault_plan",
    "enumerate_sites",
    "parse_fault",
    "run_crash",
    "run_sweep",
    "standard_workload",
]
