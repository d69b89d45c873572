"""Reachability census: every module under ``src/repro`` has a caller.

An AST import walk sorts the package's modules by what reaches them.
A module stays if one of these reaches it:

* an entry point — ``python -m repro`` (its eight subcommands), the
  gateway, ``benchmarks/macro/**`` and the ``benchmarks/bench_*.py``
  paper artifacts; what a package ``__init__`` *runs* (the mechanism
  registrations) counts, what it merely re-exports does not;
* an example that demonstrates a claim the paper makes (:data:`CLAIMED`);
* a test suite that uses it as the oracle it checks production code
  against (:data:`ORACLES`).

All three sets are pinned, so a module that lands in none of them — or
moves between them — is a visible diff, the way
``tests/test_option_census.py`` pins options.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

RULE = ("a module stays only if an entry point, an example demonstrating "
        "a paper claim, or a test oracle reaches it (ROADMAP, direction "
        "8): call it from one, or delete it")

#: Modules the entry points reach, per package.
REACHED = {
    "repro": "__main__ io",
    "repro.cloud": "billing subscriptions",
    "repro.cluster": "federation placement rebalance reports",
    "repro.core": "caf car cat density exact greedy gv loads mechanism "
                  "model movement_window optc random_admission result "
                  "selection special_cases two_price",
    "repro.core.fastpath": "index kernels select",
    "repro.dsms": "backend engine load metrics operators plan scheduler "
                  "streams tuples",
    "repro.experiments": "figures harness lying report runtime timeline",
    "repro.gametheory": "properties strategyproof sybil",
    "repro.serve": "backpressure gateway http loadgen logs",
    "repro.service": "builder coordinator hooks reports service transition",
    "repro.sim": "arrivals columnar driver events metrics "
                 "subscriptions trace",
    "repro.utils": "records registry rng specparse tables validation",
    "repro.wal": "crashpoints groupcommit log records recovery",
    "repro.workload": "generator lying sharing zipf",
}

#: Module → (example that reaches it, the paper claim it demonstrates).
CLAIMED = {
    "repro.dsms.shedding": (
        "admission_vs_shedding.py",
        "the introduction: admission control vs tuple-level load "
        "shedding"),
    "repro.cloud.energy": (
        "capacity_planning.py",
        "Section VII: capacity chosen against energy cost"),
    "repro.gametheory.attacks": (
        "sybil_attacks.py",
        "Section V: the constructive sybil attacks of Theorems 15 and "
        "17 and the Two-price coin variant"),
    "repro.workload.scenarios": (
        "quickstart.py",
        "Example 1 (Figures 1-2): the worked CAR / CAF / CAT payments"),
}

#: Module → (test suite that uses it as its oracle, what it checks).
ORACLES = {
    "repro.gametheory.critical_value": (
        "tests/gametheory/test_critical_value.py",
        "Table I: payments equal the bisected critical bid"),
    "repro.gametheory.monotonicity": (
        "tests/gametheory/test_monotonicity.py",
        "Table I: winners stay winners at a higher bid"),
}


def _name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {name for name, path in MODULES.items()
            if path.name == "__init__.py"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _bindings(package: str) -> dict:
    """name → (module, attribute) for each name a package imports."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in _tree(MODULES[package]).body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _resolve(module: str, name: str) -> "str | None":
    """The module ``from module import name`` reaches: the submodule,
    else the module a package re-exports the name from."""
    while True:
        if f"{module}.{name}" in MODULES:
            return f"{module}.{name}"
        if module not in PACKAGES or name not in _bindings(module):
            return module if module in MODULES else None
        module, name = _bindings(module)[name]


def _imports(tree: ast.AST) -> set:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(_resolve(node.module, alias.name)
                         for alias in node.names)
    return found - {None}


def _edges(module: str) -> set:
    tree = _tree(MODULES[module])
    if module not in PACKAGES:
        return _imports(tree)
    # A package reaches what the code it runs names, not what it
    # re-exports: its imports, docstring and ``__all__`` are skipped.
    bindings = _bindings(module)
    code = [stmt for stmt in tree.body
            if not isinstance(stmt, (ast.Import, ast.ImportFrom))
            and not (isinstance(stmt, ast.Expr)
                     and isinstance(stmt.value, ast.Constant))
            and not (isinstance(stmt, ast.Assign)
                     and [getattr(t, "id", None) for t in stmt.targets]
                     == ["__all__"])]
    return {_resolve(*bindings[node.id])
            for stmt in code for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and node.id in bindings} - {None}


def reach(*files: Path, modules=()) -> set:
    """Every non-package module reached from *files* and *modules*."""
    seen, stack = set(), [*modules]
    for path in files:
        stack.extend(_imports(_tree(path)))
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack.extend(_edges(module))
            # Importing a.b.c runs a and a.b.
            parts = module.split(".")
            stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
    return seen - PACKAGES


def entry_reached() -> set:
    benchmarks = REPO / "benchmarks"
    scripts = [path for path in sorted((benchmarks / "macro").rglob("*.py"))
               if "tests" not in path.parts]
    scripts += sorted(benchmarks.glob("bench_*.py"))
    return reach(*scripts, modules=["repro.__main__", "repro.serve.gateway"])


def test_every_module_is_reached_claimed_or_an_oracle():
    reached = entry_reached()
    pinned = {f"{package}.{leaf}" for package, leaves in REACHED.items()
              for leaf in leaves.split()}
    stray = sorted(set(MODULES) - PACKAGES - reached
                   - CLAIMED.keys() - ORACLES.keys())
    assert not stray, f"{stray}: {RULE}"
    assert reached == pinned, (
        f"newly reached {sorted(reached - pinned)}, no longer reached "
        f"{sorted(pinned - reached)}: update REACHED")


def test_claimed_modules_are_reached_only_by_their_example():
    reached = entry_reached()
    for module, (example, claim) in CLAIMED.items():
        assert module not in reached, f"{module} is entry-reached now"
        assert module in reach(REPO / "examples" / example), (
            f"{example} no longer reaches {module} ({claim})")


def test_oracles_are_reached_only_by_their_tests():
    reached = entry_reached()
    for module, (suite, check) in ORACLES.items():
        assert module not in reached, f"{module} is entry-reached now"
        assert module in reach(REPO / suite), (
            f"{suite} no longer uses {module} as its oracle ({check})")
