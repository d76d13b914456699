"""Whole-program analysis tests: ProjectIndex-powered rule families.

Covers the planted fixtures under tests/lint_fixtures/ (CONC001, the
CS001 chain), cwd-independent repo-relative paths, byte-for-byte
deterministic JSON output, suppression-comment placement on decorator
lines and multi-line signatures, and allow comments that hide nothing.
"""

import ast
import io
import textwrap
import tokenize
from pathlib import Path

import repro
from repro.analysis.linter import lint_paths, load_modules, render_json
from repro.analysis.suppress import _ALLOW_RE, def_line_span
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


# ------------------------------------------------------------ CS001 chain

def test_cs001_names_minimal_chain():
    res = _fixture_lint("cs001_chain", ["CS001"])
    assert _rules(res) == ["CS001"]
    message = res.findings[0].message
    assert "PlantedFW.mount() -> PlantedFW._replay()" in message
    assert "write_page" in message


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
    res = lint_paths([tmp_path], rules=["CS001"])
    assert res.findings == []


# ------------------------------------------- path stability and determinism

def test_finding_paths_are_repo_relative_and_cwd_stable(tmp_path, monkeypatch):
    res_here = _fixture_lint("conc001", ["CONC001"])
    monkeypatch.chdir(tmp_path)
    res_there = _fixture_lint("conc001", ["CONC001"])
    assert render_json(res_here) == render_json(res_there)
    path = res_here.findings[0].path
    assert path == "tests/lint_fixtures/conc001/repro/cluster/planted_cache.py"


def test_double_run_json_output_is_byte_identical(capsys):
    args = ["lint", str(FIXTURES / "conc001"), str(FIXTURES / "cs001_chain"),
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
    res = lint_paths([tmp_path], rules=["CS001"])
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
    res = lint_paths([tmp_path], rules=["CS001"])
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


def stale_allows(paths):
    """``path:line RULE`` for each allow comment under ``paths`` that
    hides no finding: with suppressions ignored, no finding of its rule
    lands on a line it covers.  It covers its own line, the next one
    when it stands alone, and for CS001 on a ``def`` header the whole
    function."""
    hidden = {
        (f.path, f.rule, f.line)
        for f in lint_paths(paths, honor_suppressions=False).findings
    }
    stale = []
    for mod in load_modules(paths)[0]:
        defs = [n for n in ast.walk(mod.tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        source = io.StringIO(mod.path.read_text())
        for tok in tokenize.generate_tokens(source.readline):
            m = _ALLOW_RE.search(tok.string)
            if tok.type != tokenize.COMMENT or m is None:
                continue
            n = tok.start[0]
            own = {n, n + 1} if tok.line.lstrip().startswith("#") else {n}
            for rule in (r.strip() for r in m.group(1).split(",")):
                lines = set(own)
                if rule == "CS001":
                    for d in defs:
                        if own & set(def_line_span(d)):
                            lines |= set(range(d.lineno, d.end_lineno + 1))
                if not any((mod.display, rule, i) in hidden for i in lines):
                    stale.append(f"{mod.display}:{n} {rule}")
    return stale


def test_a_stale_allow_comment_is_found(tmp_path):
    _write(tmp_path, "repro/ssd/t.py", """\
        def drain(xs):
            for x in set(xs):  # repro: allow[DET003]
                print(x)
            return sorted(xs)  # repro: allow[DET003]

        class FW:
            # repro: allow[CS001]
            def recover(self):
                self.ftl.write_page(0, b"", None)

            def mount(self):  # repro: allow[CS001]
                return None
        """)
    stale = [s.split("/")[-1] for s in stale_allows([tmp_path])]
    assert stale == ["t.py:4 DET003", "t.py:11 CS001"]


# ---------------------------------------------------------- real-tree gates

def test_serve_path_is_concurrency_clean():
    res = lint_paths([PKG], rules=["CONC001"])
    assert res.findings == []
    assert res.errors == []


def test_every_allow_comment_hides_a_finding():
    assert stale_allows([PKG]) == []


def test_analysis_package_is_clean_without_suppressions():
    # The linter's own package must not rely on allow[...] comments to
    # pass its own rules.
    res = lint_paths([PKG / "analysis"], honor_suppressions=False)
    assert res.findings == []
    assert res.errors == []
