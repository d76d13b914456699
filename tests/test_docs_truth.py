"""The docs name files and commands that exist.

DESIGN.md once described a tree with ``fs/ext4/`` and ``nova/``
directories and the README taught a subcommand whose harness had gone
stale; nothing failed.  Grep-level on purpose: a path or a ``repro``
subcommand written in the docs is checked against the checkout and
against the CLI's own usage line, and a flag given to a subcommand in a
code block against that subcommand's ``--help``.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout
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
FLAG_DOCS = COMMAND_DOCS + sorted((ROOT / "docs").glob("*.md"))

#: the subcommand of the deleted in-process perf suite
GONE = "bench"

_PATH = re.compile(
    r"(?<![\w/.-])(?:src/repro|tests|benchmarks|docs|examples|perfbench)"
    r"/[\w./*-]*"
)
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_COMMAND = re.compile(r"\brepro[ \t]+\{?([a-z][a-z,-]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
#: where a shell line stops being the ``repro`` command's arguments
_END_OF_ARGS = re.compile(r"\s#|\||&&|;|>")


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


def unknown_flags(text: str, options):
    """``repro <subcommand> --flag`` in a fenced block of ``text`` that
    the subcommand does not take; ``options`` maps each subcommand to
    its flags.  Lines ending in ``\\`` are joined first."""
    bad = set()
    for block in _FENCE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            line = _END_OF_ARGS.split(line)[0]
            m = _COMMAND.search(line)
            if m is None or m.group(1) not in options:
                continue
            bad.update(
                f"repro {m.group(1)} {flag}"
                for flag in _FLAG.findall(line[m.end():])
                if flag not in options[m.group(1)]
            )
    return sorted(bad)


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


@pytest.fixture(scope="module")
def options(registered):
    """Each subcommand's flags, read off its ``--help``."""
    out = {}
    for name in registered:
        text = io.StringIO()
        with redirect_stdout(text), pytest.raises(SystemExit):
            main([name, "--help"])
        out[name] = set(_FLAG.findall(text.getvalue()))
    return out


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


@pytest.mark.parametrize("doc", FLAG_DOCS, ids=lambda p: p.name)
def test_every_flag_in_a_code_block_is_an_option(doc, options):
    assert unknown_flags(doc.read_text(), options) == []


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


def test_the_checks_catch_what_they_were_written_for(registered, options):
    assert missing_paths(
        "see `src/repro/fs/ext4/`, tests/test_*.py and perfbench/out/x.json"
    ) == ["src/repro/fs/ext4/"]
    planted = (f"```bash\nrepro {GONE} --repeat 3\n"
               "python -m repro {list,run}\n```")
    assert unknown_commands(planted, registered) == [GONE]
    assert unknown_commands(f"`repro {GONE}` is gone", registered) == []
    planted = ("```bash\nrepro lint src/repro \\\n    --baseline b.json\n"
               "repro lint --format=json  # --nope\n"
               "repro lint | grep --count x\n```")
    assert unknown_flags(planted, options) == ["repro lint --baseline"]
