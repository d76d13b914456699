"""``python -m perfbench``: run the benchmark, print every metric, check."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from perfbench import OUT_DIR, compare, host, runner
from perfbench.workloads import WORKLOADS

SCHEMA = "perfbench.result/v1"


def document(reports: Dict[str, Dict], seed: int, reps: int,
             scale: str) -> Dict:
    """Workload reports plus host context and the cross-workload checks."""
    doc = {
        "schema": SCHEMA,
        "host": host.context(seed, reps, scale),
        "workloads": reports,
    }
    calib = {"value": doc["host"]["host.calib_mops"], "unit": "Mops/s"}
    for report in reports.values():
        report["per_layer"]["host.calib_mops"] = calib
    doc["checks"] = runner.cross_checks(reports)
    doc["failed_checks"] = runner.failed_checks(doc)
    return doc


def write(doc: Dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_all(names: List[str], seed: int, reps: int, scale: str,
            trace: bool, log=None) -> Dict:
    """The whole benchmark as one document."""
    return document(
        {name: runner.run_workload(name, seed, scale, reps, trace, log)
         for name in names},
        seed, reps, scale,
    )


def render(doc: Dict) -> str:
    """Every metric by name, with its unit."""
    h = doc["host"]
    lines = [
        f"perfbench  seed={h['seed']} reps={h['reps']} scale={h['scale']}  "
        f"nproc={h['nproc']} python={h['python']} numpy={h['numpy']}  "
        f"host.calib_mops={h['host.calib_mops']:.2f}  "
        f"commit={h['git_commit']}"
    ]
    for name, rep in doc["workloads"].items():
        lines.append(
            f"\n== {name} ({rep['kind']}): {rep.get('ops', 0)} ops, "
            f"{rep.get('events', 0)} events, "
            f"p99 over n={rep.get('latency_n', 0)}"
        )
        for metric, e in rep["end_to_end"].items():
            if e["clock"] == "host":
                lines.append(
                    f"  {metric:<34} {e['value']:>16.6g} {e['unit']:<10} "
                    f"host  q1={e['q1']:.6g} q3={e['q3']:.6g} n={e['n']}"
                )
            else:
                lines.append(
                    f"  {metric:<34} {e['value']:>16.6g} {e['unit']:<10} "
                    "sim   exact"
                )
        for metric, e in rep["per_layer"].items():
            lines.append(
                f"  {metric:<34} {e['value']:>16.6g} {e['unit']}"
            )
        for failure in rep["failures"]:
            lines.append(
                f"  FAILED OP  {failure['where']}: {failure['type']}: "
                f"{failure['message']}"
            )
        for c in rep["checks"]:
            lines.append(
                f"  check {c['name']:<28} {'ok' if c['ok'] else 'FAILED'}"
                f"  {c['detail']}"
            )
    for c in doc["checks"]:
        lines.append(
            f"\ncheck {c['name']}: {'ok' if c['ok'] else 'FAILED'}  "
            f"{c['detail']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="The repo's reference benchmark (perfbench/README.md).",
    )
    ap.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="run only this workload (repeatable); default: all seven",
    )
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument(
        "--reps", type=int, default=5,
        help="untraced samples per workload (host metrics: their median)",
    )
    ap.add_argument(
        "--no-trace", dest="trace", action="store_false",
        help="skip the traced pass (no layer.* metrics)",
    )
    ap.add_argument(
        "--smoke", action="store_true",
        help="~1/20 scale, for the self-tests; numbers mean nothing",
    )
    ap.add_argument(
        "--out", default=os.path.join(OUT_DIR, "result.json"),
        help="where the JSON document goes",
    )
    ap.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="apply the bounds to two documents (A is the base); "
        "exit 1 on any regressed row",
    )
    args = ap.parse_args(argv)

    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as fh:
                docs.append(json.load(fh))
        rows = compare.compare(*docs)
        print(compare.render(rows))
        return 1 if any(r["verdict"] == "regressed" for r in rows) else 0

    if args.reps < 1:
        ap.error("--reps must be at least 1")
    names = args.workload or list(WORKLOADS)
    doc = run_all(
        names, args.seed, args.reps, "smoke" if args.smoke else "full",
        args.trace, log=lambda msg: print(msg, file=sys.stderr),
    )
    write(doc, args.out)
    print(render(doc))
    print(f"\nwrote {args.out}")
    for line in doc["failed_checks"]:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if doc["failed_checks"] else 0
