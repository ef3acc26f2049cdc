"""The library surface holds what the program runs: test oracles live in
tests/, not in src/, no table or helper outlives its last user, and the
modules import each other in layers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexmf"

# kept only because perfbench/spans.py wraps it as a layer boundary
UNREFERENCED = {("functional", "w_alpha")}

# the package modules each module may import; cli and __main__ may import any
LAYERS = {
    "__init__": set(),
    "measure": set(),
    "torus": set(),
    "functional": {"measure", "torus"},
    "minimize": {"functional", "measure", "torus"},
    "blowup": {"functional", "measure", "torus"},
}


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



def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports anywhere in it, by
    ``from vortexmf.m import ...``, ``from vortexmf import m`` or
    ``import vortexmf.m``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "vortexmf":
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vortexmf."):
            modules.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            modules |= {a.name.split(".")[1] for a in node.names if a.name.startswith("vortexmf.")}
    return modules


def test_the_modules_import_each_other_in_layers():
    # the output side (detect_concentration, rescale_profile) reads values,
    # so blowup needs no solver type
    stems = sorted(path.stem for path in SRC.glob("*.py"))
    assert set(stems) == set(LAYERS) | {"cli", "__main__"}
    crossings = {}
    for module in LAYERS:
        imported = _package_imports(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
        if not imported <= LAYERS[module]:
            crossings[module] = sorted(imported - LAYERS[module])
    assert crossings == {}
