"""One sample of one workload, in a process of its own.

The parent (``runner.py``) starts ``python -m perfbench.sample`` afresh
for every sample, so ``setup_s``, ``cmd_wall_s`` and ``peak_rss_mb`` are
what a user of ``repro run`` / ``repro serve`` pays: interpreter start,
``import repro``, building the stack, the run, writing the document.

The sample writes two files: the workload's own result document
(``RunResult.to_json()`` or the ``repro.cluster.run/v2`` document) and a
sample record with the phase times, the simulated metrics and the
deterministic work counters of the measured region.  With ``--trace 1``
the layer probes go on before anything is built and the record carries
the per-layer wall split.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import json
import os
import resource
import sys
import traceback
from typing import Dict, List, Optional

from perfbench.host import SpeedMeter, now


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    descendant (the bigger shard worker of serve_32x4_w2; none elsewhere).

    ``VmHWM`` rather than ``ru_maxrss`` for the process itself: Linux
    carries ``ru_maxrss`` across exec, so a child would report its
    parent's peak if that were larger.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own_kb = int(line.split()[1])
    except OSError:
        pass
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def stack_counts(device, stats, fs) -> Dict[str, float]:
    """Cumulative work counters of one device stack, through its public
    surfaces only; two snapshots bracket a measured region."""
    link, flash = device.link, device.flash
    counts = {
        "link.mmio_read_lines": link.mmio_reads,
        "link.mmio_write_lines": link.mmio_writes,
        "link.dma_transfers": link.dma_transfers,
        "flash.reads": flash.reads,
        "flash.writes": flash.writes,
        "flash.erases": flash.erases,
    }
    for key, value in device.gauges().items():
        counts[f"gauge.{key}"] = value
    for key, value in stats.counters.items():
        counts[f"counter.{key}"] = value
    page_cache = getattr(fs, "page_cache", None)
    if page_cache is not None:
        counts["page_cache.hits"] = page_cache.hits
        counts["page_cache.misses"] = page_cache.misses
    return counts


def add_delta(total: Dict[str, float], before: Dict, after: Dict) -> None:
    for key, value in after.items():
        total[key] = total.get(key, 0) + value - before.get(key, 0)


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def work_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    """Per-layer work metrics of a measured region from counter deltas.

    A layer that was not built (no devcache, no ByteFS firmware log)
    contributes no keys, so its metrics are absent, not zero.
    """
    def d(key: str) -> float:
        return delta.get(key, 0)

    out: Dict[str, Optional[float]] = {
        "fs.block_writebacks": d("counter.block_writebacks"),
        "host.page_cache_hit_ratio": _ratio(
            d("page_cache.hits"),
            d("page_cache.hits") + d("page_cache.misses"),
        ),
        "interconnect.mmio_write_lines": d("link.mmio_write_lines"),
        "interconnect.mmio_read_lines": d("link.mmio_read_lines"),
        "interconnect.dma_transfers": d("link.dma_transfers"),
        "ftl.gc_runs": d("gauge.gc_runs"),
        "ftl.gc_migrated_pages": d("gauge.gc_migrated_pages"),
        "ftl.write_buffer_stalls": d("counter.write_buffer_stalls"),
        "nand.reads": d("flash.reads"),
        "nand.writes": d("flash.writes"),
        "nand.erases": d("flash.erases"),
    }
    if "counter.fw_log_appends" in delta:
        out["ssd.firmware.log_appends"] = d("counter.fw_log_appends")
        out["ssd.firmware.commits"] = d("counter.fw_commits")
        out["ssd.firmware.log_cleanings"] = d("counter.fw_log_cleanings")
        out["ssd.firmware.clean_page_flushes"] = d(
            "counter.fw_clean_page_flushes"
        )
    if "gauge.devcache_hits" in delta:
        hits, misses = d("gauge.devcache_hits"), d("gauge.devcache_misses")
        out["devcache.hit_ratio"] = _ratio(hits, hits + misses)
        out["devcache.evictions"] = (
            d("gauge.devcache_evictions_clean")
            + d("gauge.devcache_evictions_dirty")
        )
        out["devcache.writebacks"] = d("gauge.devcache_writebacks")
        out["devcache.prefetch_useful_ratio"] = _ratio(
            d("gauge.devcache_prefetch_hits"),
            d("gauge.devcache_prefetch_issued"),
        )
    return {k: v for k, v in out.items() if v is not None}


def _events(ops: int, delta: Dict[str, float]) -> int:
    """The deterministic event count of a measured region: workload ops
    plus link cachelines, DMA transfers and flash reads/writes/erases
    (``repro.bench.perf``'s ``sim_ops`` definition)."""
    return int(ops + sum(
        v for k, v in delta.items() if k.startswith(("link.", "flash."))
    ))


#: the one series Guarded records every op's latency under
ALL_OPS = "all"


def _failure(where: str, exc: BaseException) -> Dict[str, str]:
    return {"where": where, "type": type(exc).__name__, "message": str(exc)}


class Guarded:
    """A workload whose op generators count an exception instead of
    propagating it, and that keeps every op's simulated latency in one
    ``LatencyRecorder`` series (the harness keeps one per op name).

    A generator that raised is finished; the other simulated threads run
    on.  The latency of an op is read on the same clock at the same two
    points the harness reads it (nothing advances the clock between the
    harness's read and ours).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.n_threads = inner.n_threads
        self.seed = inner.seed
        from repro.stats.traffic import LatencyRecorder

        self.latency = LatencyRecorder()
        self.failures: List[Dict[str, str]] = []

    def setup(self, fs) -> None:
        self.inner.setup(fs)

    def teardown(self, fs) -> None:
        self.inner.teardown(fs)

    def make_threads(self, fs):
        return [self._guard(gen, fs.clock, tid)
                for tid, gen in enumerate(self.inner.make_threads(fs))]

    def _guard(self, gen, clock, tid: int):
        record = self.latency.record
        while True:
            t_start = clock.now
            try:
                op = next(gen)
            except StopIteration:
                return
            except Exception as exc:  # counted, reported, not propagated
                self.failures.append(_failure(f"thread {tid}", exc))
                return
            record(ALL_OPS, clock.now - t_start)
            yield op


def _write_json(path: str, doc) -> str:
    """Write ``doc`` the way the ``repro`` CLI writes a document; returns
    the sha256 of the bytes."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def sample_run(spec, args, marks: Dict) -> Dict:
    """One closed-loop sample through ``run_workload``."""
    from repro.bench.harness import run_workload

    from perfbench import probe
    from perfbench.workloads import build_run_workload

    workload, harness_kw = build_run_workload(
        spec.name, args.seed, args.scale == "smoke"
    )
    guarded = Guarded(workload)
    delta: Dict[str, float] = {}

    def stack_probe(phase, clock, stats, device, fs) -> None:
        if phase == "measure-start":
            marks["before"] = stack_counts(device, stats, fs)
            if args.trace:
                probe.reset()
            gc.collect()
            gc.disable()
            marks["epoch"] = now()
        else:
            marks["run_end"] = now()
            gc.enable()
            if args.trace:
                marks["layers"] = probe.snapshot()
            add_delta(delta, marks["before"], stack_counts(device, stats, fs))

    result = run_workload(
        spec.fs, guarded, stack_probe=stack_probe, **harness_kw
    )
    sha = _write_json(args.result, result.to_json())
    latency_n = guarded.latency.count(ALL_OPS)
    expected = spec.expected_ops if (
        args.seed == 42 and args.scale == "full"
    ) else None
    # A thread that raised stops early: every op it did not reach failed.
    failed = len(guarded.failures)
    if expected is not None:
        failed = max(failed, expected - result.ops)
    attempted = result.ops + failed
    sim = {
        "sim_ops_per_sim_s": result.throughput,
        "sim_p99_us": (
            guarded.latency.percentile(ALL_OPS, 99) / 1000.0
            if latency_n else None
        ),
        "host_write_amp": _ratio(result.host_write, result.app_write),
        "flash_write_amp": _ratio(result.flash_write, result.app_write),
        "failed_ops_ratio": failed / attempted if attempted else 1.0,
    }
    work = work_metrics(delta)
    if result.host_write:
        work["fs.byte_write_share"] = result.byte_write / result.host_write
    return {
        "ops": result.ops,
        "attempted": attempted,
        "failed": failed,
        "latency_n": latency_n,
        "events": _events(result.ops, delta),
        "sim": {k: v for k, v in sim.items() if v is not None},
        "work": work,
        "failures": guarded.failures,
        "result_sha256": sha,
    }


def hook_serve(marks: Dict, traced: bool) -> None:
    """Time ``repro serve`` from outside.

    The CLI returns an exit code, not the result object, and the
    measurement epoch is inside ``serve_cluster``; so the entry points on
    the way are wrapped where they are defined and wherever ``repro``
    imported them by name.  Serial path: the first ``run_device_drain``
    is the epoch and each call's device stack gives the work counters.
    Worker path: the drain runs in other processes; the epoch is the last
    worker's "setup" message (``worker._recv``), after which the parent
    broadcasts t0 and the workers start draining.
    """
    from repro.cluster import kernel, merge, serve, worker

    from perfbench import probe

    serve_cluster = serve.serve_cluster

    def serve_wrapper(*a, **k):
        # gc off for the whole call, as repro.bench.perf times serving
        gc.collect()
        gc.disable()
        t0 = now()
        try:
            marks["result"] = serve_cluster(*a, **k)
            return marks["result"]
        finally:
            marks["serve_wall"] = now() - t0
            gc.enable()
    probe.replace_everywhere(serve_cluster, serve_wrapper)

    drain = kernel.run_device_drain
    params = list(inspect.signature(drain).parameters)
    marks["delta"] = {}

    def drain_wrapper(*a, **k):
        if "epoch" not in marks:
            marks["epoch"] = now()
            if traced:
                probe.reset()
        bound = dict(zip(params, a), **k)
        stack = (bound["device_obj"], bound["stats"], bound["fs"])
        before = stack_counts(*stack)
        try:
            return drain(*a, **k)
        finally:
            if traced:
                marks["layers"] = probe.snapshot()
            add_delta(marks["delta"], before, stack_counts(*stack))
    probe.replace_everywhere(drain, drain_wrapper)

    recv = worker._recv

    def recv_wrapper(conn, proc, expect):
        payload = recv(conn, proc, expect)
        if expect == "setup":
            marks["epoch"] = now()
        return payload
    probe.replace_everywhere(recv, recv_wrapper)

    merge_results = merge.merge_shard_results

    def merge_wrapper(*a, **k):
        t0 = now()
        try:
            return merge_results(*a, **k)
        finally:
            marks["merge_wall"] = now() - t0
    probe.replace_everywhere(merge_results, merge_wrapper)


def sample_serve(spec, args, marks: Dict) -> Dict:
    """One open-loop sample through ``repro.cli.main(["serve", ...])``."""
    import repro.cli

    from perfbench.workloads import serve_argv

    hook_serve(marks, bool(args.trace))
    argv = serve_argv(spec, args.seed, args.scale == "smoke", args.result)
    with open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(devnull):  # --format json prints it
        code = repro.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"repro serve exited with code {code}")
    result = marks.pop("result")
    marks["run_end"] = marks["epoch"] + result.wall_s
    with open(args.result, "rb") as fh:
        raw = fh.read()
    doc = json.loads(raw)
    tenants = doc["tenants"]
    submitted = sum(t["submitted"] for t in tenants)
    dropped = sum(t["dropped"] for t in tenants)
    not_served = doc["rejected"] + dropped + doc["lost_to_crash"]
    app_write = sum(d["app_write"] for d in doc["devices"])
    all_lat = doc["latency"].get("all") or {}
    sim = {
        "sim_ops_per_sim_s": doc["throughput_ops_s"],
        "sim_p99_us": (
            all_lat["p99"] / 1000.0 if all_lat.get("p99") is not None
            else None
        ),
        "host_write_amp": _ratio(
            sum(d["host_write"] for d in doc["devices"]), app_write
        ),
        "flash_write_amp": _ratio(
            sum(d["flash_write"] for d in doc["devices"]), app_write
        ),
        "failed_ops_ratio": not_served / submitted if submitted else 1.0,
        "slo_violation_ratio": _ratio(doc["slo_violations"], doc["ops"]),
    }
    work = {
        "interconnect.mmio_write_lines":
            result.layer_calls["link.mmio_write_lines"],
        "interconnect.mmio_read_lines":
            result.layer_calls["link.mmio_read_lines"],
        "interconnect.dma_transfers": result.layer_calls["link.dma_transfers"],
        "nand.reads": result.layer_calls["flash.reads"],
        "nand.writes": result.layer_calls["flash.writes"],
        "nand.erases": result.layer_calls["flash.erases"],
    }
    if marks["delta"]:  # serial path: the device stacks were in reach
        work = work_metrics(marks["delta"])
    work["cluster.drain_wall_s"] = result.wall_s
    work["cluster.nondrain_wall_s"] = marks["serve_wall"] - result.wall_s
    if "merge_wall" in marks:
        work["cluster.merge_wall_s"] = marks["merge_wall"]
    work["cluster.dispatched"] = doc["ops"] + doc["lost_to_crash"]
    work["cluster.rejected"] = doc["rejected"]
    return {
        "ops": doc["ops"],
        "attempted": submitted,
        # Admission control refusing an arrival under overload is what
        # this workload asks for and is counted in failed_ops_ratio; the
        # failure count handed to the pipeline is the ops that were lost.
        "failed": dropped + doc["lost_to_crash"],
        "latency_n": all_lat.get("count", 0),
        "events": int(doc["ops"] + sum(result.layer_calls.values())),
        "sim": {k: v for k, v in sim.items() if v is not None},
        "work": work,
        "failures": [],
        "result_sha256": hashlib.sha256(raw).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.sample")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-t", type=float, required=True,
                    help="parent's monotonic clock just before the spawn")
    ap.add_argument("--out", required=True, help="sample record path")
    ap.add_argument("--result", required=True, help="result document path")
    args = ap.parse_args(argv)

    from perfbench import probe
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    if not spec.workers and hasattr(os, "sched_setaffinity"):
        # One core for the simulator and the meter thread, so the meter
        # times the core the simulator runs on (the two vCPUs of the
        # reference box speed up and slow down independently).  Shard
        # workers would inherit the mask, so serve_32x4_w2 is not pinned.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    meter = SpeedMeter()
    meter.start()
    if args.trace:
        probe.install()  # before any stack is built: see probe.py
    import repro.cli  # noqa: F401  what `python -m repro` imports

    marks: Dict = {"import_end": now()}
    record: Dict = {
        "workload": spec.name, "seed": args.seed, "scale": args.scale,
        "traced": bool(args.trace),
    }
    try:
        body = (sample_run if spec.kind == "run" else sample_serve)(
            spec, args, marks
        )
    except Exception as exc:  # one workload must not abort the others
        gc.enable()
        traceback.print_exc()
        record["error"] = _failure("sample", exc)
        with open(args.out, "w") as fh:
            json.dump(record, fh)
        return 1
    finally:
        end = now()
        meter.stop()
    record.update(body)

    def net(t_from: float, t_to: float) -> float:
        return t_to - t_from - meter.window(t_from, t_to)[0]

    epoch, run_end = marks["epoch"], marks["run_end"]
    setup, run_wall = net(args.spawn_t, epoch), net(epoch, run_end)
    setup_speed = meter.window(args.spawn_t, epoch)[1]
    run_speed = meter.window(epoch, run_end)[1]
    meter_s, speed = meter.window(args.spawn_t, end)
    record["host"] = {
        "setup_s": setup,
        "setup_cal_s": setup * setup_speed,
        "run_wall_s": run_wall,
        # meter chunks included: what the layer probes' spans add up to
        "run_gross_s": run_end - epoch,
        "run_cal_s": run_wall * run_speed,
        "sim_events_per_wall_s": record["events"] / run_wall,
        "sim_events_per_cal_s": record["events"] / (run_wall * run_speed),
        "peak_rss_mb": peak_rss_mb(),
        # for the parent, which times the whole command
        "meter_s": meter_s,
        "speed_ratio": speed,
    }
    record["phase"] = {
        "phase.import_s": net(args.spawn_t, marks["import_end"]),
        "phase.build_s": net(marks["import_end"], epoch),
        "phase.run_wall_s": run_wall,
        "phase.finish_s": net(run_end, end),
        "calib.speed_ratio": run_speed,
    }
    if "layers" in marks:
        record["layers"] = marks["layers"]
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
