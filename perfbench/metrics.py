"""The benchmark's metric tables: names, units, directions, bounds.

Two clocks, never mixed.  ``host`` metrics are wall time (or memory) of
the simulator itself and are noisy: they are reported as the median of
the repetitions with quartiles and n.  ``sim`` metrics are the paper's
results on the simulated clock; with a fixed seed they repeat exactly,
so their bound is 0 and any movement is flagged.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "lower" | "higher"
    clock: str           # "host" | "sim"
    #: share of the base median the metric may worsen by before it counts
    #: as a regression; 0 = must repeat exactly
    bound: float
    #: absolute slack on top of ``bound`` (same unit as the metric)
    abs_slack: float = 0.0


#: the end-to-end metrics; a metric undefined on a workload is omitted.
#: The three ``*_cal_s`` metrics are the three wall-time metrics above
#: them in calibrated seconds (host.SpeedMeter): same definition, scaled
#: by how fast the host was while the sample ran.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", 0.20, abs_slack=0.05),
    Metric("sim_events_per_wall_s", "events/s", "higher", "host", 0.10),
    Metric("cmd_wall_s", "s", "lower", "host", 0.10),
    Metric("setup_cal_s", "cal_s", "lower", "host", 0.20, abs_slack=0.05),
    Metric("sim_events_per_cal_s", "events/cal_s", "higher", "host", 0.10),
    Metric("cmd_cal_s", "cal_s", "lower", "host", 0.10),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.05),
    Metric("sim_ops_per_sim_s", "ops/sim_s", "higher", "sim", 0.0),
    Metric("sim_p99_us", "sim_us", "lower", "sim", 0.0),
    Metric("host_write_amp", "ratio", "lower", "sim", 0.0),
    Metric("flash_write_amp", "ratio", "lower", "sim", 0.0),
    Metric("failed_ops_ratio", "ratio", "lower", "sim", 0.0),
    Metric("slo_violation_ratio", "ratio", "lower", "sim", 0.0),
)

#: layers of the stack, outermost first (see probe.LAYER_CLASSES for the
#: module each maps to); "workloads" is the residual
LAYERS: Tuple[str, ...] = (
    "workloads", "fs", "host", "interconnect", "ssd", "ssd.firmware",
    "devcache", "ftl", "nand", "sim", "cluster",
)

#: deterministic work counters per layer: layer -> ((name, unit, better), ...)
_WORK: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "fs": (
        ("block_writebacks", "count", "lower"),
        ("byte_write_share", "ratio", "higher"),
    ),
    "host": (("page_cache_hit_ratio", "ratio", "higher"),),
    "interconnect": (
        ("mmio_write_lines", "count", "lower"),
        ("mmio_read_lines", "count", "lower"),
        ("dma_transfers", "count", "lower"),
    ),
    "ssd.firmware": (
        ("log_appends", "count", "lower"),
        ("commits", "count", "lower"),
        ("log_cleanings", "count", "lower"),
        ("clean_page_flushes", "count", "lower"),
    ),
    "devcache": (
        ("hit_ratio", "ratio", "higher"),
        ("evictions", "count", "lower"),
        ("writebacks", "count", "lower"),
        ("prefetch_useful_ratio", "ratio", "higher"),
    ),
    "ftl": (
        ("gc_runs", "count", "lower"),
        ("gc_migrated_pages", "count", "lower"),
        ("write_buffer_stalls", "count", "lower"),
    ),
    "nand": (
        ("reads", "count", "lower"),
        ("writes", "count", "lower"),
        ("erases", "count", "lower"),
    ),
    "cluster": (
        ("drain_wall_s", "s", "lower"),
        ("nondrain_wall_s", "s", "lower"),
        ("merge_wall_s", "s", "lower"),
        ("dispatched", "count", "higher"),
        ("rejected", "count", "lower"),
    ),
}

_PHASES: Tuple[Tuple[str, str, str], ...] = (
    ("phase.import_s", "s", "lower"),
    ("phase.build_s", "s", "lower"),
    ("phase.run_wall_s", "s", "lower"),
    ("phase.finish_s", "s", "lower"),
    ("calib.speed_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.calib_mops", "Mops/s", "higher"),
)


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"layer.{layer}.self_wall_s", "s", "lower"))
        if layer != "workloads":  # the residual has no boundary to count
            out.append((f"layer.{layer}.calls", "count", "lower"))
        for name, unit, better in _WORK.get(layer, ()):
            out.append((f"{layer}.{name}", unit, better))
    return tuple(out) + _PHASES


#: the 53 per-layer metrics: (name, unit, better), grouped by layer
PER_LAYER: Tuple[Tuple[str, str, str], ...] = _per_layer()
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _b in PER_LAYER}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

