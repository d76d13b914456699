"""The docs name files and commands that exist.

DESIGN.md once described a tree with ``fs/ext4/`` and ``nova/``
directories and the README taught a subcommand whose harness had gone
stale; nothing failed.  Grep-level on purpose: a path or a ``repro``
subcommand written in the docs is checked against the checkout and
against the CLI's own usage line.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
SKILL = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
#: the skill is the builder's own note: absent from some checkouts
COMMAND_DOCS = [p for p in (ROOT / "README.md", ROOT / "DESIGN.md", SKILL)
                if p.exists()]
PATH_DOCS = COMMAND_DOCS + [ROOT / "EXPERIMENTS.md",
                            *sorted((ROOT / "docs").glob("*.md"))]

#: the subcommand of the deleted in-process perf suite
GONE = "bench"

_PATH = re.compile(
    r"(?<![\w/.-])(?:src/repro|tests|benchmarks|docs|examples|perfbench)"
    r"/[\w./*-]*"
)
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_COMMAND = re.compile(r"\brepro[ \t]+\{?([a-z][a-z,-]*)")


def missing_paths(text: str):
    """Repo paths written in ``text`` that the checkout does not have
    (globs, and perfbench's untracked output directory, exempt)."""
    found = {m.group().rstrip(".") for m in _PATH.finditer(text)}
    return sorted(
        p for p in found
        if "*" not in p and not p.startswith("perfbench/out/")
        and not (ROOT / p).exists()
    )


def unknown_commands(text: str, registered):
    """``repro <subcommand>`` in a fenced block of ``text`` that the CLI
    does not register (``repro {a,b}`` names several)."""
    used = {
        name
        for block in _FENCE.findall(text)
        for names in _COMMAND.findall(block)
        for name in names.split(",")
    }
    return sorted(used - set(registered))


@pytest.fixture(scope="module")
def registered():
    """The subcommands, read off the usage error of one that is gone:
    it is rejected (exit 2) and the rest are listed."""
    usage = io.StringIO()
    with redirect_stderr(usage), pytest.raises(SystemExit) as exc:
        main([GONE])
    assert exc.value.code == 2
    names = re.search(r"usage: repro \[-h\]\s+\{([\w,-]+)\}", usage.getvalue())
    assert names, usage.getvalue()
    return names.group(1).split(",")


def test_a_deleted_subcommand_is_a_usage_error_that_lists_the_rest(
    registered,
):
    assert GONE not in registered
    assert {"run", "serve", "compare", "crashsweep", "lint", "trace"} \
        <= set(registered)


@pytest.mark.parametrize("doc", PATH_DOCS, ids=lambda p: p.name)
def test_every_path_in_the_docs_exists(doc):
    assert missing_paths(doc.read_text()) == []


@pytest.mark.parametrize("doc", COMMAND_DOCS, ids=lambda p: p.name)
def test_every_command_in_a_code_block_is_registered(doc, registered):
    assert unknown_commands(doc.read_text(), registered) == []


def test_design_layout_lists_exactly_the_packages():
    """The tree under "Layout" names packages relative to ``src/repro/``
    (no full path for :func:`missing_paths` to see), and it is also the
    place a new package is most easily left out of."""
    tree = re.search(r"^src/repro/\n((?:  .*\n)+)",
                     (ROOT / "DESIGN.md").read_text(), re.M)
    listed = set(re.findall(r"^  (\w+)/", tree.group(1), re.M))
    packages = {p.parent.name
                for p in (ROOT / "src" / "repro").glob("*/__init__.py")}
    assert listed == packages


def test_the_checks_catch_what_they_were_written_for(registered):
    assert missing_paths(
        "see `src/repro/fs/ext4/`, tests/test_*.py and perfbench/out/x.json"
    ) == ["src/repro/fs/ext4/"]
    planted = (f"```bash\nrepro {GONE} --repeat 3\n"
               "python -m repro {list,run}\n```")
    assert unknown_commands(planted, registered) == [GONE]
    assert unknown_commands(f"`repro {GONE}` is gone", registered) == []
