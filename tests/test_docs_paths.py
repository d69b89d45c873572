"""Every repository path the docs name in backticks exists."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
#: `src/…`, `tests/…`, `benchmarks/…`, `examples/…`, `BENCH*.json`;
#: globs (`tests/data/*.checkpoint`) and `file::test` ids included.
PATH = re.compile(
    r"`((?:src|tests|benchmarks|examples)/[^`\s]*|BENCH\w*\.json)`")


@pytest.mark.parametrize("doc", ["README.md",
                                 ".claude/skills/verify/SKILL.md"])
def test_named_paths_exist(doc):
    named = set(PATH.findall((REPO / doc).read_text()))
    assert named, doc
    missing = sorted(path for path in named
                     if not any(REPO.glob(path.split("::")[0])))
    assert not missing, f"{doc} names paths that do not exist: {missing}"


#: A `*.md` file named in program text, read from the repository root.
MARKDOWN = re.compile(r"[\w./-]+\.md\b")


def test_markdown_named_in_code_exists():
    missing = sorted(
        f"{path.relative_to(REPO)}: {name}"
        for top in ("src", "tests", "examples")
        for path in (REPO / top).rglob("*.py")
        for name in MARKDOWN.findall(path.read_text())
        if not (REPO / name).exists())
    assert not missing, f"code names docs that do not exist: {missing}"
