"""The library surface holds what the program runs: test oracles live in
tests/, not in src/, and no table or helper outlives its last user."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexmf"

# kept only because perfbench/spans.py wraps it as a layer boundary
UNREFERENCED = {("functional", "w_alpha")}


def _public_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The public module-level functions, classes and constants, each with
    the statement that defines it."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.append((stmt.name, stmt))
        elif isinstance(stmt, ast.Assign):
            names += [(t.id, stmt) for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.append((stmt.target.id, stmt))
    return [(name, stmt) for name, stmt in names if not name.startswith("_")]


def _referenced_names(tree: ast.Module, skip: ast.stmt | None) -> set[str]:
    """The names read anywhere in a module, as ``f`` or ``module.f``, outside
    the module-level statement ``skip``: a call, an annotation, a handler
    passed to ``set_defaults`` and a constant read all count."""
    names = set()
    for stmt in tree.body:
        if stmt is skip:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_of_the_package_is_referenced_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    unreferenced = []
    for module, tree in trees.items():
        for name, stmt in _public_names(tree):
            if (module, name) in UNREFERENCED:
                continue
            refs = set()
            for other, other_tree in trees.items():
                refs |= _referenced_names(other_tree, stmt if other == module else None)
            if name not in refs:
                unreferenced.append(f"{module}.{name}")
    assert unreferenced == []

