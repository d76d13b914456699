"""Self-tests of the benchmark, at smoke scale (~1/20, 1 rep).

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  Not part of tier-1 (``testpaths`` there is ``tests``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from perfbench import cli, compare, metrics, sample  # noqa: E402
from perfbench.workloads import WORKLOADS, build_run_workload  # noqa: E402


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    """All seven workloads, one untraced and one traced sample each."""
    return cli.run_all(list(WORKLOADS), 42, 1, "smoke", trace=True)


def _value(report, name):
    return report["per_layer"][name]["value"]


def test_smoke_passes_its_own_checks(smoke):
    assert smoke["failed_checks"] == []
    assert [c["name"] for c in smoke["checks"]] == [
        "serve_documents_identical"
    ]


def test_names_equal_benchmark_json(smoke, contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert list(smoke["workloads"]) == list(WORKLOADS)
    listed = {m["name"]: m["unit"] for m in
              contract["end_to_end"] + contract["per_layer"]}
    known = {m.name: m.unit for m in metrics.END_TO_END}
    known.update(metrics.PER_LAYER_UNITS)
    assert listed == known
    emitted = set()
    for report in smoke["workloads"].values():
        emitted.update(report["end_to_end"], report["per_layer"])
    assert emitted == set(listed)


def test_exact_metrics_repeat_across_two_runs(smoke):
    again = cli.run_all(list(WORKLOADS), 42, 1, "smoke", trace=False)
    assert again["failed_checks"] == []
    for name, first in smoke["workloads"].items():
        second = again["workloads"][name]
        for key in ("ops", "events", "attempted", "failed", "result_sha256"):
            assert first[key] == second[key], (name, key)
        for m in metrics.END_TO_END:
            if m.clock == "sim":
                assert first["end_to_end"].get(m.name) == \
                    second["end_to_end"].get(m.name), (name, m.name)
        for key, entry in second["per_layer"].items():
            host_clock = key.endswith("_wall_s") or key.startswith(
                ("layer.", "phase.", "trace.", "calib.", "host.calib")
            )
            if not host_clock:
                assert first["per_layer"][key] == entry, (name, key)


def test_layer_self_times_add_up_to_the_traced_wall(smoke):
    for name, report in smoke["workloads"].items():
        if name == "serve_32x4_w2":
            continue  # the probes do not reach the worker processes
        layers = {k: e["value"] for k, e in report["per_layer"].items()
                  if k.startswith("layer.") and k.endswith(".self_wall_s")}
        wall = report["traced"]["run_wall_s"]
        assert abs(sum(layers.values()) - wall) <= 0.02 * wall, name
        # the probe's own books: the spans opened from outside any layer
        # cover exactly what the layers' self times sum to
        spans = sum(v for k, v in layers.items()
                    if k != "layer.workloads.self_wall_s")
        covered = report["traced"]["covered_wall_s"]
        assert abs(spans - covered) <= 0.02 * wall, name
        assert layers["layer.workloads.self_wall_s"] >= -0.02 * wall, name


def test_probe_sees_calls_through_hoisted_bound_methods(smoke):
    # MSSD hoists link.dma and FTL hoists flash.program_page in __init__:
    # both inequalities fail if the probe goes on after build_stack.
    varmail = smoke["workloads"]["varmail_sync"]
    dma = _value(varmail, "interconnect.dma_transfers")
    assert _value(varmail, "layer.interconnect.calls") >= dma > 0
    oltp = smoke["workloads"]["oltp_gc"]
    nand_ops = sum(_value(oltp, f"nand.{k}")
                   for k in ("reads", "writes", "erases"))
    assert _value(oltp, "layer.nand.calls") >= nand_ops > 0


def test_devcache_layer_only_where_a_devcache_is_built(smoke):
    for name, report in smoke["workloads"].items():
        has = "layer.devcache.self_wall_s" in report["per_layer"]
        assert has == (name == "devcache_thrash"), name


def test_race_free_varmail_is_varmail_on_a_seed_without_the_race():
    from repro.bench.harness import run_workload
    from repro.workloads import Varmail

    ours, kw = build_run_workload("varmail_sync", 42, smoke=True)
    assert type(ours).__name__ == "RaceFreeVarmail"
    theirs = Varmail(ops_per_thread=ours.ops_per_thread, seed=42)
    assert run_workload("bytefs", ours, **kw).to_json() == \
        run_workload("bytefs", theirs, **kw).to_json()


def test_a_raising_thread_is_counted_not_propagated():
    class Clock:
        now = 0.0

    class FS:
        clock = Clock()

    class Inner:
        name, n_threads, seed = "inner", 2, 1

        def make_threads(self, fs):
            def good():
                for _ in range(3):
                    fs.clock.now += 5.0
                    yield "op"

            def bad():
                yield "op"
                raise OSError("disk on fire")
            return [good(), bad()]

    guarded = sample.Guarded(Inner())
    ops = [list(gen) for gen in guarded.make_threads(FS())]
    assert [len(o) for o in ops] == [3, 1]
    assert guarded.latency.count(sample.ALL_OPS) == 4
    assert guarded.latency.percentile(sample.ALL_OPS, 100) == 5.0
    assert guarded.failures == [{
        "where": "thread 1", "type": "OSError", "message": "disk on fire",
    }]


def _doc(**e2e):
    return {"workloads": {"w": {"end_to_end": e2e}}}


def _host(value, q1=None, q3=None):
    return {"value": value, "q1": q1 or value, "q3": q3 or value,
            "clock": "host"}


def test_compare_verdicts(tmp_path):
    base = _doc(cmd_wall_s=_host(4.0), setup_s=_host(0.30),
                sim_events_per_wall_s=_host(100.0),
                peak_rss_mb=_host(50.0, 40.0, 60.0),
                sim_p99_us={"value": 10.0, "clock": "sim"})
    new = _doc(cmd_wall_s=_host(4.5), setup_s=_host(0.34),
               sim_events_per_wall_s=_host(115.0),
               peak_rss_mb=_host(80.0),
               sim_p99_us={"value": 10.0, "clock": "sim"})
    got = {r["metric"]: r["verdict"] for r in compare.compare(base, new)}
    assert got == {
        "cmd_wall_s": "regressed",            # +12.5 % > 10 %
        "setup_s": "unchanged",               # +0.04 s < 0.06 s (20 %)
        "sim_events_per_wall_s": "improved",  # +15 % > 10 %
        "peak_rss_mb": "unresolved",          # base quartiles 40 % apart
        "sim_p99_us": "unchanged",
    }
    moved = _doc(sim_p99_us={"value": 10.000001, "clock": "sim"})
    rows = compare.compare(_doc(sim_p99_us=base["workloads"]["w"][
        "end_to_end"]["sim_p99_us"]), moved)
    assert [r["verdict"] for r in rows] == ["regressed"]  # bound 0: exact
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(new))
    assert cli.main(["--compare", str(a), str(b)]) == 1
    assert cli.main(["--compare", str(a), str(a)]) == 0


def test_run_py_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    pipeline's command must exit non-zero and print no result."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO_ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "varmail_sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
