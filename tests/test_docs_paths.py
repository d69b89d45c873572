"""Every repository path the docs name in backticks exists, and every
fenced ``python`` block of README.md runs."""

import os
import re
import subprocess
import sys
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


#: The fenced ``python`` blocks of README.md, in order.
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (REPO / "README.md").read_text(),
                           flags=re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("code", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    """Each block is a script of its own, run from a scratch directory
    (the blocks write checkpoints to the working directory)."""
    script = tmp_path / "block.py"
    script.write_text(code)
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
