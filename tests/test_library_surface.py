"""The library surface holds what the program runs: test oracles live in
tests/, not in src/, no table or helper outlives its last user, no
parameter takes a value that only tests set, and the modules import each
other in layers."""

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
    "blowup": {"measure", "torus"},
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


# the parameters whose default may stand with no use in src/ overriding it:
# the program's input, which the process reads from sys.argv and a caller
# passes as a list
INPUTS = {"cli.main.argv"}


def _name(node: ast.expr) -> str | None:
    """The name a call, a decorator or a reference reads: ``f`` of ``f``,
    ``obj.f`` and ``f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _signature(name: str, owner: str, args: ast.arguments, skip: int) -> tuple[str, list[str], set[str]]:
    positional = (args.posonlyargs + args.args)[skip:]
    params = [f"{owner}.{a.arg}" for a in positional + args.kwonlyargs]
    defaulted = params[len(positional) - len(args.defaults) : len(positional)]
    defaulted += [f"{owner}.{a.arg}" for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return name, params, set(defaulted)


def _signatures(module: str, tree: ast.Module) -> list[tuple[str, list[str], set[str]]]:
    """(the name a use reads it by, its parameters in call order, those
    with a default) for every function, method and dataclass of a module,
    a parameter named ``module.function.parameter``: a method is read by
    its own name, and ``__init__`` and a dataclass's fields by the class
    name."""
    methods = {id(s) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for s in c.body}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owner = f"{module}.{node.name}"
            if "dataclass" in map(_name, node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                params = [f"{owner}.{f.target.id}" for f in fields]
                out.append((node.name, params, {p for p, f in zip(params, fields) if f.value is not None}))
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    name = node.name if fn.name == "__init__" else fn.name
                    out.append(_signature(name, f"{owner}.{fn.name}", fn.args, skip=1))
        elif isinstance(node, ast.FunctionDef) and id(node) not in methods:
            out.append(_signature(node.name, f"{module}.{node.name}", node.args, skip=0))
    return out


def _uses(tree: ast.Module) -> list[tuple[str, int, set[str] | None]]:
    """(name, positional count, keyword names) of every call in a module,
    ``functools.partial(f, ...)`` a use of f, and (name, 0, None) of a
    function passed by name, such as a handler to ``set_defaults``, which
    is called with every default left.  A call with ``*args`` or
    ``**kwargs`` gives no use."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee, args = _name(node), node.args
        if callee == "partial":
            callee, args = _name(args[0]), args[1:]
        else:
            out += [(a.id, 0, None) for a in [*args, *(k.value for k in node.keywords)] if isinstance(a, ast.Name)]
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
            continue
        out.append((callee, len(args), {k.arg for k in node.keywords}))
    return out


def test_every_parameter_default_in_src_is_both_left_and_overridden_by_uses_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    signatures = [sig for module, tree in trees.items() for sig in _signatures(module, tree)]
    left, overridden = set(), set()
    for name, params, defaulted in signatures:
        for callee, count, keywords in uses:
            if callee != name:
                continue
            for k, param in enumerate(params):
                given = keywords is not None and (k < count or param.rsplit(".", 1)[1] in keywords)
                (overridden if given else left).add(param)
    defaults = set().union(*(defaulted for _, _, defaulted in signatures))
    # a default every use overrides is a required argument, and one no use
    # overrides a constant: either way a value that only tests turn
    required, constant = sorted(defaults - left), sorted(defaults - overridden - INPUTS)
    assert required == constant == [], f"required: {required}; constant: {constant}"
