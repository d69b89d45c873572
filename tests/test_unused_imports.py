"""No module imports a name it never uses (the container has no ruff).

``__init__.py`` re-exports, ``__all__`` members and ``# noqa`` lines
are excepted; names inside quoted annotations count as uses.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FILES = [path for top in ("src", "tests", "examples")
         for path in sorted((REPO / top).rglob("*.py"))
         if path.name != "__init__.py"]


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", "") != "__future__"
                    and "noqa" not in lines[node.lineno - 1]):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation or an ``__all__`` member (a docstring
            # that happens to say the name also counts: no false alarm).
            used.update(re.findall(r"\w+", node.value))
    return [f"{path.relative_to(REPO)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    found = [hit for path in FILES for hit in unused_imports(path)]
    assert len(FILES) > 100 and not found, "\n".join(found)
