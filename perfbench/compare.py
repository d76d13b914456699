"""``python -m perfbench --compare A.json B.json``: apply the bounds.

One row per workload x end-to-end metric, A as the base:

* ``regressed``  -- B is worse than A by more than the metric's bound;
* ``improved``   -- B is better than A by more than the bound;
* ``unchanged``  -- within the bound;
* ``unresolved`` -- the distance between one side's quartiles, as a
  share of its median, is wider than the bound: the runs cannot tell.

Sim-clock metrics have bound 0: they are ``unchanged`` only when equal.
This is the check for "two sets of runs of one commit agree", and the
table a later change puts in its before/after report.  It is not how a
gain is claimed: that takes ten alternating pairs (README).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.metrics import END_TO_END, Metric


def _spread(entry: Dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / entry["value"]


def verdict(metric: Metric, a: Dict, b: Dict) -> Tuple[str, float]:
    """(verdict, B/A) of one metric on one workload."""
    va, vb = a["value"], b["value"]
    ratio = vb / va if va else float("inf") if vb else 1.0
    if metric.bound and max(_spread(a), _spread(b)) > metric.bound:
        return "unresolved", ratio
    worse = vb - va if metric.better == "lower" else va - vb
    allowed = max(metric.bound * abs(va), metric.abs_slack)
    if worse > allowed:
        return "regressed", ratio
    if -worse > allowed:
        return "improved", ratio
    return "unchanged", ratio


def compare(doc_a: Dict, doc_b: Dict) -> List[Dict]:
    rows = []
    for name, rep_a in doc_a["workloads"].items():
        rep_b = doc_b["workloads"].get(name)
        if rep_b is None:
            continue
        for metric in END_TO_END:
            a = rep_a["end_to_end"].get(metric.name)
            b = rep_b["end_to_end"].get(metric.name)
            if a is None and b is None:
                continue
            if a is None or b is None:
                rows.append({
                    "workload": name, "metric": metric.name,
                    "verdict": "regressed", "ratio": None,
                    "a": a and a["value"], "b": b and b["value"],
                    "unit": metric.unit,
                })
                continue
            v, ratio = verdict(metric, a, b)
            rows.append({
                "workload": name, "metric": metric.name, "verdict": v,
                "ratio": ratio, "a": a["value"], "b": b["value"],
                "unit": metric.unit, "bound": metric.bound,
                "spread_a": _spread(a), "spread_b": _spread(b),
            })
    return rows


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<22} {'A (base)':>14} {'B':>14} "
        f"{'B/A':>7} {'bound':>6} {'spreadA':>8} {'spreadB':>8}  verdict"
    ]
    for r in rows:
        if r["ratio"] is None:
            lines.append(
                f"{r['workload']:<16} {r['metric']:<22} {r['a']!s:>14} "
                f"{r['b']!s:>14} {'':>7} {'':>6} {'':>8} {'':>8}  "
                f"{r['verdict']} (defined on one side only)"
            )
            continue
        lines.append(
            f"{r['workload']:<16} {r['metric']:<22} {r['a']:>14.6g} "
            f"{r['b']:>14.6g} {r['ratio']:>7.3f} {r['bound']:>6.2f} "
            f"{r['spread_a']:>8.3f} {r['spread_b']:>8.3f}  {r['verdict']}"
            f" [{r['unit']}]"
        )
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    lines.append("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return "\n".join(lines)
