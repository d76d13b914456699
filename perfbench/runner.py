"""Parent side: spawn samples, fold them into one workload report, check.

A workload report has ``end_to_end`` (host metrics as median with
quartiles and n over the untraced samples; sim metrics as the one value
every sample must agree on), ``per_layer`` (from the traced sample) and
``checks``.  A failed check makes the whole command exit non-zero and
names the metric; it never stops the other workloads from running.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from perfbench import OUT_DIR, REPO_ROOT
from perfbench.metrics import END_TO_END, PER_LAYER_UNITS, quartiles
from perfbench.host import now
from perfbench.workloads import WORKLOADS

#: a sample that has not finished by then is killed and counted as failed
SAMPLE_TIMEOUT_S = 120

_HOST = tuple(m for m in END_TO_END if m.clock == "host")
_SIM = tuple(m for m in END_TO_END if m.clock == "sim")


def run_sample(name: str, seed: int, scale: str, traced: bool) -> Dict:
    """One sample in a fresh child; returns its record plus the
    parent-measured ``cmd_wall_s``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "traced" if traced else "sample"
    out = os.path.join(OUT_DIR, f"{name}.{tag}.json")
    result = os.path.join(OUT_DIR, f"{name}.result.json")
    for path in (out, result):
        if os.path.exists(path):
            os.remove(path)
    t0 = now()
    cmd = [
        sys.executable, "-m", "perfbench.sample", "--workload", name,
        "--seed", str(seed), "--scale", scale, "--trace", str(int(traced)),
        "--spawn-t", repr(t0), "--out", out, "--result", result,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stderr = -1, f"timed out after {exc.timeout} s"
    cmd_wall = now() - t0
    try:
        with open(out) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {"workload": name, "seed": seed, "traced": traced}
    if code != 0 and "error" not in record:
        record["error"] = {
            "where": "child", "type": f"exit {code}",
            "message": stderr.strip()[-2000:],
        }
    if "error" not in record:
        host = record["host"]
        host["cmd_wall_s"] = cmd_wall - host.pop("meter_s")
        host["cmd_cal_s"] = host["cmd_wall_s"] * host.pop("speed_ratio")
    return record


def _check(name: str, ok: bool, detail: str = "") -> Dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def fold(name: str, samples: List[Dict], traced: Optional[Dict],
         seed: int, scale: str) -> Dict:
    """Fold one workload's samples into its report."""
    spec = WORKLOADS[name]
    good = [s for s in samples if "error" not in s]
    report: Dict = {
        "kind": spec.kind, "seed": seed, "scale": scale,
        "n_samples": len(samples), "end_to_end": {}, "per_layer": {},
        "checks": [], "failures": [],
    }
    checks = report["checks"]
    for s in samples + ([traced] if traced else []):
        if "error" in s:
            report["failures"].append(s["error"])
        report["failures"].extend(s.get("failures", ()))
    checks.append(_check(
        "samples_completed", len(good) == len(samples) and bool(good),
        f"{len(good)} of {len(samples)}",
    ))
    if not good:
        # Nothing ran to the end: every op of this workload failed.
        report["attempted"], report["failed"] = 1, 1
        report["end_to_end"]["failed_ops_ratio"] = {
            "value": 1.0, "unit": "ratio", "clock": "sim",
        }
        return report
    first = good[0]
    e2e = report["end_to_end"]
    for m in _HOST:
        values = [s["host"][m.name] for s in good]
        q1, med, q3 = quartiles(values)
        e2e[m.name] = {
            "value": med, "unit": m.unit, "clock": "host",
            "q1": q1, "q3": q3, "n": len(values), "values": values,
        }
    for m in _SIM:
        if m.name in first["sim"]:
            e2e[m.name] = {
                "value": first["sim"][m.name], "unit": m.unit, "clock": "sim",
            }
    for key in ("ops", "attempted", "failed", "events", "latency_n",
                "result_sha256"):
        report[key] = first[key]
    # Exact metrics and deterministic counts repeat across every sample.
    every = good + ([traced] if traced and "error" not in traced else [])
    for s in every[1:]:
        for section in ("sim", "work"):
            for key, value in first[section].items():
                if key.endswith("_wall_s"):
                    continue  # cluster.* phase walls are host time
                if s[section].get(key) != value:
                    checks.append(_check(
                        f"repeat:{key}", False,
                        f"{value!r} then {s[section].get(key)!r}",
                    ))
        for key in ("ops", "events", "result_sha256"):
            if s[key] != first[key]:
                checks.append(_check(
                    f"repeat:{key}", False, f"{first[key]!r} then {s[key]!r}"
                ))
    if not any(c["name"].startswith("repeat:") for c in checks):
        checks.append(_check("repeat", True, f"{len(every)} samples agree"))
    if spec.expected_ops is not None and seed == 42 and scale == "full":
        checks.append(_check(
            "op_count", first["ops"] == spec.expected_ops,
            f"{first['ops']} ops, pinned {spec.expected_ops}",
        ))
    if scale == "full":
        checks.append(_check(
            "p99_sample_count", first["latency_n"] >= 2000,
            f"n={first['latency_n']}",
        ))
    per_layer = report["per_layer"]
    per_layer.update(first["work"])
    for key in first["phase"]:
        per_layer[key] = statistics.median(s["phase"][key] for s in good)
    for key in ("cluster.drain_wall_s", "cluster.nondrain_wall_s",
                "cluster.merge_wall_s"):
        if key in first["work"]:
            per_layer[key] = statistics.median(s["work"][key] for s in good)
    if traced is not None and "error" not in traced:
        layers = traced.get("layers", {}).get("layers", {})
        traced_wall = traced["host"]["run_gross_s"]
        report["traced"] = {"run_wall_s": traced_wall}
        if layers:
            report["traced"]["covered_wall_s"] = \
                traced["layers"]["covered_wall_s"]
            for layer, row in layers.items():
                per_layer[f"layer.{layer}.self_wall_s"] = row["self_wall_s"]
                per_layer[f"layer.{layer}.calls"] = row["calls"]
            per_layer["layer.workloads.self_wall_s"] = traced_wall - sum(
                row["self_wall_s"] for row in layers.values()
            )
            report["edges"] = traced["layers"]["edges"][:40]
        per_layer["trace.overhead_ratio"] = (
            traced["host"]["run_cal_s"]
            / statistics.median(s["host"]["run_cal_s"] for s in good)
        )
    report["per_layer"] = {
        key: {"value": per_layer[key], "unit": unit}
        for key, unit in PER_LAYER_UNITS.items() if key in per_layer
    }
    return report


def run_workload(name: str, seed: int, scale: str, reps: int,
                 trace: bool, log=None) -> Dict:
    """``reps`` untraced samples, then one traced sample if asked."""
    samples = []
    for i in range(reps):
        samples.append(run_sample(name, seed, scale, traced=False))
        if log:
            log(f"{name}: sample {i + 1}/{reps}")
    traced = run_sample(name, seed, scale, traced=True) if trace else None
    return fold(name, samples, traced, seed, scale)


def cross_checks(workloads: Dict[str, Dict]) -> List[Dict]:
    """Checks that span workloads: the two serve documents are one."""
    serial, sharded = (workloads.get(n) for n in
                       ("serve_32x4", "serve_32x4_w2"))
    if not serial or not sharded or "result_sha256" not in serial \
            or "result_sha256" not in sharded:
        return []
    same = serial["result_sha256"] == sharded["result_sha256"]
    return [_check(
        "serve_documents_identical", same,
        "sha256 " + serial["result_sha256"][:16]
        + ("" if same else " vs " + sharded["result_sha256"][:16]),
    )]


def failed_checks(doc: Dict) -> List[str]:
    out = [f"{c['name']}: {c['detail']}" for c in doc.get("checks", ())
           if not c["ok"]]
    for name, report in doc["workloads"].items():
        out.extend(f"{name}: {c['name']}: {c['detail']}"
                   for c in report["checks"] if not c["ok"])
    return out
