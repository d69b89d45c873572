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
