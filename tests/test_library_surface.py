"""The library surface holds what the program runs: test oracles live in
tests/, not in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexmf"

# kept only because perfbench/spans.py wraps it as a layer boundary
UNCALLED = {("functional", "w_alpha")}


def _called_names(tree: ast.Module, skip: str | None) -> set[str]:
    """The names called anywhere in a module, by ``f(...)`` or
    ``module.f(...)``, outside the module-level function ``skip``."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == skip:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    names.add(func.id)
                elif isinstance(func, ast.Attribute):
                    names.add(func.attr)
    return names


def test_every_public_function_of_the_calculus_and_the_functional_is_called_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uncalled = []
    for module in ("torus", "functional"):
        for stmt in trees[module].body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                continue
            if (module, stmt.name) in UNCALLED:
                continue
            calls = set()
            for other, tree in trees.items():
                calls |= _called_names(tree, stmt.name if other == module else None)
            if stmt.name not in calls:
                uncalled.append(f"{module}.{stmt.name}")
    assert uncalled == []
