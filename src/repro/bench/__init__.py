"""Benchmark harness: build a stack, run a workload, collect results.

Both names load on first use, so ``repro serve`` can format its report
table without compiling the single-tenant harness.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    "repro.bench.harness": ("RunResult", "run_workload", "DEFAULT_GEOMETRY"),
    "repro.bench.report": ("format_table", "normalize"),
})

__all__ = [
    "RunResult",
    "run_workload",
    "DEFAULT_GEOMETRY",
    "format_table",
    "normalize",
]
