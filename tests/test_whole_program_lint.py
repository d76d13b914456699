"""Whole-program analysis tests: ProjectIndex-powered rule families.

Covers the planted fixtures under tests/lint_fixtures/ (CONC001/002/003,
CS002), the crash-coverage map, SARIF output shape, the baseline
grandfathering workflow, cwd-independent repo-relative paths, byte-for-byte
deterministic JSON output, and suppression-comment placement on decorator
lines and multi-line signatures.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.findings import RULES
from repro.analysis.linter import lint_paths, render_json
from repro.analysis.sarif import render_sarif
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
PKG = Path(repro.__file__).resolve().parent


def _fixture_lint(name, rules=()):
    return lint_paths([FIXTURES / name], rules=list(rules))


def _rules(result):
    return [f.rule for f in result.findings]


def _write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


# ---------------------------------------------------------------- CONC001

def test_conc001_fires_on_planted_module_cache():
    res = _fixture_lint("conc001", ["CONC001"])
    assert _rules(res) == ["CONC001"]
    assert "_RESULT_CACHE" in res.findings[0].message


def test_conc001_ignores_unmutated_module_constant(tmp_path):
    _write(tmp_path, "repro/cluster/registry.py", """\
        KNOWN_MODES = {"fifo": 1, "drr": 2}

        def lookup(name):
            return KNOWN_MODES[name]
        """)
    res = lint_paths([tmp_path], rules=["CONC001"])
    assert res.findings == []


def test_conc001_requires_serve_reachability(tmp_path):
    # Same mutated-global shape, but the module is not reachable from
    # any repro.cluster module in the linted set.
    _write(tmp_path, "repro/workloads/scratch.py", """\
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value
        """)
    res = lint_paths([tmp_path], rules=["CONC001"])
    assert res.findings == []


def test_conc001_follows_import_closure(tmp_path):
    # The mutated global lives outside repro.cluster but is imported by
    # a cluster module, so the serve-path closure reaches it.
    _write(tmp_path, "repro/helpers/cachemod.py", """\
        _SHARED = {}

        def stash(key, value):
            _SHARED[key] = value
        """)
    _write(tmp_path, "repro/cluster/entry.py", """\
        import repro.helpers.cachemod

        def serve():
            repro.helpers.cachemod.stash("a", 1)
        """)
    res = lint_paths([tmp_path], rules=["CONC001"])
    assert _rules(res) == ["CONC001"]
    assert "_SHARED" in res.findings[0].message


# ---------------------------------------------------------------- CONC002

def test_conc002_fires_on_class_attr_and_mutable_default():
    res = _fixture_lint("conc002", ["CONC002"])
    assert _rules(res) == ["CONC002", "CONC002"]
    messages = " ".join(f.message for f in res.findings)
    assert "shared_queue" in messages
    assert "merge()" in messages


# ---------------------------------------------------------------- CONC003

def test_conc003_flags_partition_iteration_and_allows_sorted():
    res = _fixture_lint("conc003", ["CONC003"])
    assert _rules(res) == ["CONC003"]
    assert "by_shard" in res.findings[0].message
    # The sorted() loop in the same function stays clean.
    assert res.findings[0].line == 6


def test_conc003_reducer_fed_comprehension_is_clean(tmp_path):
    _write(tmp_path, "repro/cluster/totals.py", """\
        def total(by_shard):
            return sum(len(rows) for rows in by_shard.values())
        """)
    res = lint_paths([tmp_path], rules=["CONC003"])
    assert res.findings == []


# ---------------------------------------------------------- CS002 + coverage

def test_cs002_reports_minimal_chain():
    res = _fixture_lint("cs002", ["CS001", "CS002"])
    cs2 = [f for f in res.findings if f.rule == "CS002"]
    assert len(cs2) == 1
    assert "PlantedFW.mount() -> PlantedFW._replay()" in cs2[0].message
    assert "write_page" in cs2[0].message


def test_coverage_map_fixture_has_unguarded_chain():
    res = _fixture_lint("cs002", ["CS002"])
    cov = res.coverage
    assert cov is not None and cov["schema"] == "repro.lint.coverage/v1"
    unguarded = cov["primitives"]["write_page"]["unguarded"]
    assert [site["chain"] for site in unguarded] == [
        ["PlantedFW.mount", "PlantedFW._replay"]
    ]


def test_coverage_map_real_tree_has_no_unguarded_chains(tmp_path):
    out = tmp_path / "coverage.json"
    rc = main(["lint", str(PKG), "--coverage-out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.lint.coverage/v1"
    assert doc["primitives"]["write_page"]["guarded_sites"]
    for prim, entry in doc["primitives"].items():
        assert entry["unguarded"] == [], prim


def test_receiver_hint_keeps_other_class_guarded(tmp_path):
    # rogue() is unguarded but its hinted call only reaches Y.flush_meta,
    # which touches no device state; X.flush_meta keeps its single
    # guarded caller and must not be poisoned by the same-named call.
    _write(tmp_path, "repro/ssd/hinted.py", """\
        class X:
            def flush_meta(self):
                self.log.write_page(0, b"", None)

        class Y:
            def flush_meta(self):
                return None

        def guarded_driver(faults):
            faults.point("drv")
            x = X()
            x.flush_meta()

        def rogue():
            y = Y()
            y.flush_meta()
        """)
    res = lint_paths([tmp_path], rules=["CS001", "CS002"])
    assert res.findings == []


# ------------------------------------------------------------------- SARIF

def test_sarif_document_has_required_fields():
    res = _fixture_lint("cs002", ["CS001", "CS002"])
    doc = json.loads(render_sarif(res))
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-2.1.0.json")
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert [r["id"] for r in driver["rules"]] == sorted(RULES)
    assert run["results"], "fixture should produce results"
    for result in run["results"]:
        assert result["ruleId"] in RULES
        assert result["level"] == "error"
        assert result["message"]["text"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"]
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1


def test_cli_sarif_format(capsys):
    rc = main(["lint", str(FIXTURES / "conc003"), "--format=sarif"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "CONC003"


# ---------------------------------------------------------------- baseline

def test_baseline_grandfathers_known_and_fails_new(tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    fixture1 = str(FIXTURES / "conc001")
    fixture2 = str(FIXTURES / "conc002")

    # Record the CONC001 fixture finding as accepted debt.
    rc = main(["lint", fixture1, "--baseline", str(baseline),
               "--update-baseline"])
    assert rc == 0
    doc = json.loads(baseline.read_text())
    assert doc["schema"] == "repro.lint.baseline/v1"
    assert [e["rule"] for e in doc["findings"]] == ["CONC001"]
    capsys.readouterr()

    # Same tree + baseline: grandfathered, green.
    rc = main(["lint", fixture1, "--baseline", str(baseline),
               "--format=json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert [g["rule"] for g in payload["grandfathered"]] == ["CONC001"]

    # New findings (the CONC002 fixture) still fail the run.
    rc = main(["lint", fixture1, fixture2, "--baseline", str(baseline),
               "--format=json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["CONC002", "CONC002"]
    assert [g["rule"] for g in payload["grandfathered"]] == ["CONC001"]


def test_baseline_update_requires_path():
    with pytest.raises(SystemExit):
        main(["lint", str(FIXTURES / "conc001"), "--update-baseline"])


def test_baseline_rejects_malformed_document(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"schema": "wrong/v9", "findings": []}))
    with pytest.raises(SystemExit):
        main(["lint", str(FIXTURES / "conc001"), "--baseline", str(bad)])


# ------------------------------------------- path stability and determinism

def test_finding_paths_are_repo_relative_and_cwd_stable(tmp_path, monkeypatch):
    res_here = _fixture_lint("conc001", ["CONC001"])
    monkeypatch.chdir(tmp_path)
    res_there = _fixture_lint("conc001", ["CONC001"])
    assert render_json(res_here) == render_json(res_there)
    path = res_here.findings[0].path
    assert path == "tests/lint_fixtures/conc001/repro/cluster/planted_cache.py"


def test_double_run_json_output_is_byte_identical(capsys):
    args = ["lint", str(FIXTURES / "conc001"), str(FIXTURES / "cs002"),
            "--format=json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


# ------------------------------------------------------------- suppressions

def test_allow_comment_on_decorator_line_exempts_function(tmp_path):
    _write(tmp_path, "repro/ssd/deco.py", """\
        class FW:
            @staticmethod  # repro: allow[CS001]
            def recover(dev):
                dev.ftl.write_page(0, b"", None)
        """)
    res = lint_paths([tmp_path], rules=["CS001", "CS002"])
    assert res.findings == []


def test_allow_comment_on_multiline_signature_exempts_function(tmp_path):
    _write(tmp_path, "repro/ssd/multiline.py", """\
        class FW:
            def recover(
                self,
                deep,
            ):  # repro: allow[CS001]
                self.ftl.write_page(0, b"", None)
        """)
    res = lint_paths([tmp_path], rules=["CS001", "CS002"])
    assert res.findings == []


def test_unsuppressed_twin_still_fires(tmp_path):
    # Control for the two tests above: same shape, no allow comment.
    _write(tmp_path, "repro/ssd/twin.py", """\
        class FW:
            def recover(
                self,
                deep,
            ):
                self.ftl.write_page(0, b"", None)
        """)
    res = lint_paths([tmp_path], rules=["CS001"])
    assert _rules(res) == ["CS001"]


# ---------------------------------------------------------- real-tree gates

def test_serve_path_is_concurrency_clean():
    res = lint_paths([PKG], rules=["CONC001", "CONC002", "CONC003"])
    assert res.findings == []
    assert res.errors == []


def test_analysis_package_is_clean_without_suppressions():
    # Mirrors the CI self-check: the linter's own package must not rely
    # on allow[...] comments to pass its own rules.
    res = lint_paths([PKG / "analysis"], honor_suppressions=False)
    assert res.findings == []
    assert res.errors == []
