"""One workload, for the pipeline that reads ``BENCHMARK.json``.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` takes untraced samples, each in a fresh process, until
``S`` seconds are spent (two at least), and reports the end-to-end
metrics ``BENCHMARK.json`` lists: host metrics as the median over the
samples, sim metrics as the value every sample agreed on.  ``--trace 1``
takes one untraced and one traced sample and reports the per-layer
metrics; one a workload does not have (no devcache built, no cluster)
reads 0.  The last line of standard output is the result object.

Exits non-zero without a result when ``src/repro`` is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Run as a script, sys.path[0] is this directory; the package is one up.
sys.path[0] = REPO_ROOT

#: no run takes more samples than this, however short they are
MAX_SAMPLES = 9


def main(argv=None) -> int:
    from perfbench import OUT_DIR, cli, runner
    from perfbench.host import now
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print("perfbench: src/repro is not in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)

    name = args.workload
    t_start = now()
    reports = {}
    samples = []
    traced = None
    if args.trace:
        samples.append(runner.run_sample(name, args.seed, "full", False))
        traced = runner.run_sample(name, args.seed, "full", True)
    else:
        if name == "serve_32x4_w2":
            # The sharded document is right when it is the serial one:
            # one serial sample is the reference for the sha256 check.
            reports["serve_32x4"] = runner.fold(
                "serve_32x4",
                [runner.run_sample("serve_32x4", args.seed, "full", False)],
                None, args.seed, "full",
            )
        while len(samples) < 2 or (
            now() - t_start < args.seconds and len(samples) < MAX_SAMPLES
        ):
            samples.append(runner.run_sample(name, args.seed, "full", False))
    report = reports[name] = runner.fold(
        name, samples, traced, args.seed, "full"
    )
    doc = cli.document(reports, args.seed, len(samples), "full")
    cli.write(doc, os.path.join(OUT_DIR, f"{name}.run.json"))
    print(cli.render(doc))
    for line in doc["failed_checks"]:
        print(f"FAILED {line}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in contract[section]:
        entry = report[section].get(m["name"]) \
            or report["end_to_end"].get(m["name"])
        metrics[m["name"]] = {
            "value": entry["value"] if entry else 0.0, "unit": m["unit"],
        }
    print(json.dumps({
        "correct": not doc["failed_checks"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
