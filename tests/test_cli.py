"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bytefs" in out
    assert "varmail" in out
    assert "ycsb-a" in out


def test_run_micro(capsys):
    assert main(["run", "--fs", "bytefs", "--workload", "mkdir"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "mkdir" in out


def test_run_ycsb(capsys):
    assert main(["run", "--fs", "ext4", "--workload", "ycsb-c"]) == 0
    out = capsys.readouterr().out
    assert "read" in out


def test_compare(capsys):
    assert main(
        ["compare", "--workload", "create", "--systems", "ext4,bytefs"]
    ) == 0
    out = capsys.readouterr().out
    assert "vs ext4" in out


def test_unknown_workload(capsys):
    for argv in (["run", "--workload", "nonsense"], ["trace", "nonsense"],
                 ["compare", "--workload", "nonsense"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"repro {argv[0]}: unknown workload 'nonsense'; try `repro list`\n"
        )


@pytest.mark.parametrize("argv,message", [
    (["--systems", "ext4,nosuch"], "unknown file system 'nosuch'; choose "
     "from bytefs, bytefs-dual, bytefs-log, ext4, f2fs, nova, pmfs"),
    (["--systems", "ext4,f2fs", "--baseline", "nova"],
     "--baseline nova is not one of --systems ext4,f2fs"),
], ids=["system", "baseline"])
def test_compare_bad_systems_are_usage_errors(capsys, monkeypatch, argv,
                                              message):
    import repro.bench.harness

    def ran(*_a, **_k):
        raise AssertionError("a system ran before the arguments were checked")
    monkeypatch.setattr(repro.bench.harness, "run_workload", ran)
    assert main(["compare", *argv]) == 2
    assert capsys.readouterr().err == f"repro compare: {message}\n"


@pytest.mark.parametrize("size", ["0", "-5", "100", "16383"])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_a_device_cache_under_four_pages_is_a_usage_error(
    capsys, command, size
):
    argv = (["run", "--workload", "create"] if command == "run"
            else ["trace", "create"])
    assert main(argv + ["--fs", "ext4", "--device-cache-bytes", size]) == 2
    assert capsys.readouterr().err == (
        f"repro {command}: device_cache_bytes must be >= 16384 "
        f"(4 pages; got {size})\n"
    )


def test_a_log_the_firmware_refuses_is_a_usage_error(capsys):
    assert main(["run", "--workload", "create", "--log-bytes", "0"]) == 2
    assert capsys.readouterr().err == (
        "repro run: log_bytes must be >= 128 (got 0)\n"
    )


def test_unknown_fs_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--fs", "ntfs"])


def test_run_json_echoes_seed_and_config(capsys):
    assert main(
        ["run", "--fs", "bytefs", "--workload", "mkdir", "--format=json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 42
    assert doc["config"]["workload"] == "mkdir"
    assert doc["config"]["log_bytes"] == 1 << 20


# ---------------------------------------------------------------------- #
# repro serve
# ---------------------------------------------------------------------- #

_SERVE = ["serve", "--tenants", "2", "--ops", "10"]


def test_serve_text(capsys):
    assert main(_SERVE + ["--sched", "drr"]) == 0
    out = capsys.readouterr().out
    assert "tn0-mixed" in out
    assert "tn1-light" in out
    assert "p99 us" in out
    assert "total:" in out


def test_serve_json_is_valid_and_deterministic(capsys):
    from repro.cluster import validate_cluster_run

    assert main(_SERVE + ["--format=json"]) == 0
    first = capsys.readouterr().out
    assert main(_SERVE + ["--format=json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert validate_cluster_run(doc) == []
    assert doc["schema"] == "repro.cluster.run/v2"
    assert doc["seed"] == 42
    assert "devcache" not in doc  # a cache-off run carries no cache state
    assert {t["spec"]["name"] for t in doc["tenants"]} == {
        "tn0-mixed", "tn1-light",
    }


def test_serve_every_policy_and_multi_device(capsys):
    for sched in ("fifo", "drr", "token-bucket"):
        argv = _SERVE + ["--sched", sched, "--devices", "2", "--format=json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scheduler"]["policy"] == sched
        assert len(doc["devices"]) == 2


def test_serve_out_writes_document(tmp_path, capsys):
    path = tmp_path / "cluster.json"
    assert main(_SERVE + ["--out", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro.cluster.run/v2"


@pytest.mark.parametrize("policy", ["lru", "clock", "hotcold"])
def test_serve_echoes_the_devcache_flags(capsys, policy):
    argv = _SERVE + ["--devcache", "256k", "--evict", policy,
                     "--prefetch", "on", "--format=json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["devcache"] == {
        "cache_bytes": 256 * 1024, "policy": policy, "prefetch": True,
    }


def test_serve_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        main(["serve", "--sched", "deadline"])


def test_serve_with_fault_reports_recovery(tmp_path, capsys):
    path = tmp_path / "faulted.json"
    argv = _SERVE + ["--fault", "crash:dev0@ops=5", "--out", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "recovery: dev0" in out
    assert "oracle clean" in out
    doc = json.loads(path.read_text())
    assert doc["fault_plan"] == [
        {"device": 0, "at_s": None, "after_ops": 5, "torn": False}
    ]
    assert len(doc["recovery"]) == 1
    assert doc["recovery"][0]["oracle"]["clean"] is True


def test_serve_bad_fault_spec_is_a_usage_error(capsys):
    assert main(_SERVE + ["--fault", "nonsense"]) == 2
    assert "bad fault spec" in capsys.readouterr().err
    assert main(_SERVE + ["--fault", "crash:dev9@t=0.1"]) == 2
    assert "device 9" in capsys.readouterr().err


def test_serve_bad_parameter_is_a_usage_error_under_workers(capsys):
    # rejected before any worker process exists: one line, not a child
    # traceback wrapped in a RuntimeError
    assert main(_SERVE + ["--workers", "2", "--queue-depth", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "repro serve: queue depth must be >= 1\n"


def test_serve_listen_on_a_busy_port_fails_before_the_run(
    capsys, monkeypatch
):
    import socket

    import repro.cluster

    def ran(*_a, **_k):
        raise AssertionError("the run started before the port was bound")
    monkeypatch.setattr(repro.cluster, "serve_cluster", ran)
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        assert main(_SERVE + ["--listen", str(port)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro serve: cannot listen on {port}: ")
    assert len(err.splitlines()) == 1


def test_serve_listen_serves_the_finished_runs_telemetry(
    capsys, monkeypatch
):
    from repro.telemetry import parse_exposition
    from repro.telemetry.server import TelemetryServer

    served = []
    monkeypatch.setattr(
        TelemetryServer, "serve_forever",
        lambda self: served.append(self.render_metrics()),
    )
    assert main(_SERVE + ["--listen", "0"]) == 0
    assert "/metrics and /healthz" in capsys.readouterr().err
    assert "repro_tenant_submitted_total" in served[0]
    assert not parse_exposition(served[0])


# repro top
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("doc", [{}, [1, 2]], ids=["empty", "list"])
def test_top_refuses_an_invalid_run_document(tmp_path, capsys, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert main(["top", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines and all(line.startswith("run error: ") for line in lines)


@pytest.mark.parametrize("text", [None, "not json"],
                         ids=["missing", "not-json"])
@pytest.mark.parametrize("which", ["result", "series"])
def test_top_on_an_unreadable_file_is_a_usage_error(tmp_path, capsys, text,
                                                     which):
    run, bad = tmp_path / "run.json", tmp_path / "bad"
    assert main(_SERVE + ["--out", str(run)]) == 0
    capsys.readouterr()
    if text is not None:
        bad.write_text(text)
    argv = (["top", str(bad)] if which == "result"
            else ["top", str(run), "--series", str(bad)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro top: cannot read {bad}: ")
    assert len(captured.err.splitlines()) == 1


def test_top_renders_a_valid_run_document(tmp_path, capsys):
    path = tmp_path / "run.json"
    assert main(_SERVE + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["top", str(path)]) == 0
    assert "repro top" in capsys.readouterr().out


# every document is validated before it is written
# ---------------------------------------------------------------------- #

def test_serve_refuses_to_write_an_undeclared_series_key(
    tmp_path, capsys, monkeypatch
):
    from repro.telemetry.sampler import TelemetrySampler

    rows = TelemetrySampler.sorted_rows
    monkeypatch.setattr(
        TelemetrySampler, "sorted_rows",
        lambda self: [dict(r, sneaky_debug=1) for r in rows(self)],
    )
    run, series = tmp_path / "run.json", tmp_path / "series.jsonl"
    argv = _SERVE + ["--out", str(run), "--telemetry-out", str(series)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("series error: ") and "sneaky_debug" in err
    assert not run.exists() and not series.exists()


@pytest.mark.parametrize("fmt", ["jsonl", "chrome"])
def test_trace_refuses_to_write_an_undeclared_key(
    tmp_path, capsys, monkeypatch, fmt
):
    import repro.trace.export as export
    from repro.trace.tracer import Span

    if fmt == "jsonl":
        to_dict = Span.to_dict
        monkeypatch.setattr(
            Span, "to_dict",
            lambda self: dict(to_dict(self), sneaky_debug=1),
        )
    else:
        to_chrome = export.to_chrome
        monkeypatch.setattr(
            export, "to_chrome",
            lambda *a: dict(to_chrome(*a), sneaky_debug=1),
        )
    out = tmp_path / "trace.out"
    argv = ["trace", "create", "--format", fmt, "--out", str(out),
            "--report", "none"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and "sneaky_debug" in err
    assert not out.exists()


# repro crashsweep
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("site", ["999999", "-3"])
def test_crashsweep_a_site_never_reached_is_a_usage_error(capsys, site):
    from repro.faults import SweepConfig, enumerate_sites

    n = len(enumerate_sites(SweepConfig(fs_name="ext4")))
    assert main(["crashsweep", "--fs", "ext4", "--site", site]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"repro crashsweep: site {site} is never reached; the ext4 "
        f"workload reaches {n} sites (0..{n - 1})\n"
    )


def test_crashsweep_replays_the_last_site(capsys):
    from repro.faults import SweepConfig, enumerate_sites

    n = len(enumerate_sites(SweepConfig(fs_name="ext4")))
    assert main(["crashsweep", "--fs", "ext4", "--site", str(n - 1)]) == 0
    assert capsys.readouterr().out.startswith(f"[ext4] site {n - 1} (")


def test_crashsweep_negative_max_sites_is_a_usage_error(capsys):
    assert main(["crashsweep", "--max-sites", "-1"]) == 2
    assert capsys.readouterr().err == (
        "repro crashsweep: --max-sites must be >= 0 (0 only enumerates)\n"
    )
