"""``repro top``: a terminal report over a cluster run + its telemetry.

Renders the operator's five-second view of a serving run from a
``repro.cluster.run/v2`` result document, plus — when a
``repro.telemetry.series/v1`` file is supplied — the time dimension the
result document flattens away:

* **top-N tenants** by p99 latency and by SLO violations,
* **per-device utilization timelines** (queue backlog, in-flight slots,
  free pages, log occupancy) as sparklines on the virtual clock,
* **GC storms**: sampling intervals where the FTL ran garbage
  collection, ranked by migrated pages,
* **outage windows** (crash + recovery) with the ``up`` transitions.

Everything is plain string rendering over already-deterministic inputs
that passed their validators (``repro top`` checks both first); two
identical runs render identical reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: LatencyRecorder aggregate key (mirrors repro.cluster.result.ALL_OPS).
_ALL_OPS = "all"

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render ``values`` as a fixed-width unicode sparkline.

    Longer series are bucketed (max per bucket) down to ``width``.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        bucketed: List[float] = []
        n = len(vals)
        for b in range(width):
            lo = b * n // width
            hi = max(lo + 1, (b + 1) * n // width)
            bucketed.append(max(vals[lo:hi]))
        vals = bucketed
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK[0] * len(vals)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in vals)


def _fmt_us(ns: Optional[float]) -> str:
    return f"{ns / 1000:.1f}" if isinstance(ns, (int, float)) else "-"


def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.2f}ms"


def _tenant_rows(doc: Dict) -> List[Dict]:
    rows = []
    for t in doc["tenants"]:
        lat = t["latency"].get(_ALL_OPS) or {}
        rows.append({
            "name": t["spec"]["name"],
            "device": t["device"],
            "ops": t["ops"],
            "rejected": t["rejected"],
            "slo_violations": t["slo_violations"],
            "p50": lat.get("p50"),
            "p95": lat.get("p95"),
            "p99": lat.get("p99"),
        })
    return rows


def _render_tenant_table(
    title: str, rows: List[Dict], out: List[str]
) -> None:
    out.append(title)
    out.append(
        f"  {'tenant':<12} {'dev':>3} {'ops':>6} {'rej':>5} {'slo!':>5} "
        f"{'p50 us':>9} {'p95 us':>9} {'p99 us':>9}"
    )
    for r in rows:
        out.append(
            f"  {r['name']:<12} {r['device']:>3} {r['ops']:>6} "
            f"{r['rejected']:>5} {r['slo_violations']:>5} "
            f"{_fmt_us(r['p50']):>9} {_fmt_us(r['p95']):>9} "
            f"{_fmt_us(r['p99']):>9}"
        )


def _device_series(
    records: Sequence[Dict],
) -> Dict[int, List[Tuple[float, Dict]]]:
    """Device-scope rows of a parsed series, keyed by device index."""
    out: Dict[int, List[Tuple[float, Dict]]] = {}
    for row in records:
        if row["scope"] == "device":
            out.setdefault(row["device"], []).append(
                (row["t_ns"], row["metrics"])
            )
    for dev in sorted(out):
        out[dev].sort(key=lambda p: p[0])
    return out


def _gc_storms(
    points: List[Tuple[float, Dict]],
) -> List[Tuple[float, float, float]]:
    """(t_ns, gc_run_delta, migrated_delta) per interval with GC work."""
    storms = []
    prev_runs = prev_migrated = 0.0
    for t_ns, metrics in points:
        runs = metrics.get("gc_runs", 0)
        migrated = metrics.get("gc_migrated_pages", 0)
        d_runs = runs - prev_runs
        d_migrated = migrated - prev_migrated
        if d_runs > 0:
            storms.append((t_ns, d_runs, d_migrated))
        prev_runs, prev_migrated = runs, migrated
    return storms


def render_top(
    doc: Dict,
    series: Optional[Sequence[Dict]] = None,
    top_n: int = 5,
) -> str:
    """Render the report; ``series`` is the parsed JSONL record list
    (header first) from :func:`repro.telemetry.series.load_series`."""
    out: List[str] = []
    out.append(
        f"repro top — {doc['fs']} x{doc['n_devices']} "
        f"({doc['scheduler']['policy']}), {doc['ops']} ops in "
        f"{doc['elapsed_s'] * 1000:.2f} ms simulated, "
        f"{doc['slo_violations']} SLO violations, {doc['rejected']} rejected"
        + (f", {doc['lost_to_crash']} lost to crash"
           if doc["lost_to_crash"] else "")
    )
    tenants = _tenant_rows(doc)
    by_p99 = sorted(
        tenants, key=lambda r: (-(r["p99"] or 0.0), r["name"])
    )[:top_n]
    _render_tenant_table(f"\ntop {len(by_p99)} tenants by p99:", by_p99, out)
    violators = [t for t in tenants if t["slo_violations"]]
    if violators:
        by_slo = sorted(
            violators, key=lambda r: (-r["slo_violations"], r["name"])
        )[:top_n]
        _render_tenant_table(
            f"\ntop {len(by_slo)} tenants by SLO violations:", by_slo, out
        )
    if series:
        devices = _device_series(series[1:])
        if devices:
            out.append("\nper-device utilization timeline "
                       f"({len(next(iter(devices.values())))} samples):")
        for dev in sorted(devices):
            points = devices[dev]
            metrics_of = lambda key: [m.get(key, 0) for _, m in points]
            backlog = metrics_of("queue_backlog")
            inflight = metrics_of("inflight")
            free = metrics_of("free_pages")
            logu = metrics_of("log_utilization")
            out.append(f"  dev{dev} backlog  {sparkline(backlog)} "
                       f"(max {max(backlog):g})" if backlog else "")
            out.append(f"  dev{dev} inflight {sparkline(inflight)} "
                       f"(max {max(inflight):g})" if inflight else "")
            if any(free):
                out.append(f"  dev{dev} free pg  {sparkline(free)} "
                           f"(min {min(free):g})")
            if any(logu):
                out.append(f"  dev{dev} log occ  {sparkline(logu)} "
                           f"(max {max(logu):.2f})")
        storms_any = False
        for dev in sorted(devices):
            storms = _gc_storms(devices[dev])
            if not storms:
                continue
            if not storms_any:
                out.append("\nGC storms (sampling intervals with GC runs):")
                storms_any = True
            worst = sorted(
                storms, key=lambda s: (-s[2], -s[1], s[0])
            )[:top_n]
            total_runs = sum(s[1] for s in storms)
            out.append(
                f"  dev{dev}: {len(storms)} interval(s), "
                f"{total_runs:g} GC run(s); worst: " + ", ".join(
                    f"+{s[1]:g} runs/{s[2]:g} pages @ {_fmt_ms(s[0])}"
                    for s in worst
                )
            )
        if not storms_any and devices:
            out.append("\nGC storms: none (no GC activity sampled)")
        if series[0]["outages"]:
            out.append("\noutages (up 1 → 0 → 1):")
            for o in series[0]["outages"]:
                out.append(
                    f"  dev{o['device']} down {_fmt_ms(o['t_down_ns'])} → "
                    f"up {_fmt_ms(o['t_up_ns'])} "
                    f"(+{_fmt_ms(o['t_up_ns'] - o['t_down_ns'])})"
                )
    else:
        out.append(
            "\n(no telemetry series supplied — rerun with "
            "`repro serve --telemetry-out series.jsonl` and pass "
            "`--series series.jsonl` for timelines, GC storms and outages)"
        )
    return "\n".join(line for line in out if line is not None)
