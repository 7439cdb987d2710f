"""Every private module-level name in `src/` is referenced somewhere in `src/`.

A private function, class or constant (a name with one leading underscore,
defined at a module's top level) serves only the package, so one that no
module of the package refers to is dead: a helper left behind when its last
caller went.  References are found with the standard library's `ast`: a
name read anywhere, an attribute such as `ode_core._cell`, an imported name,
or a name inside a quoted annotation.  A string counts only as an annotation
or as an entry of the package's export table (`__init__._EXPORTS`), so a
config key or a kind spelled like a method does not keep the method alive.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> dict:
    """The module's top-level private functions, classes and constants, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node.lineno) for name in names if _private(name))
    return out


def _quoted(tree: ast.Module, path: Path):
    """The expressions in which a string names code: annotations and the package's export table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif path.name == "__init__.py" and isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
                yield node.value


def _referenced(tree: ast.Module, path: Path) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    for node in (n for expr in _quoted(tree, path) for n in ast.walk(expr)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "_Layout", or an exported name
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_no_unreferenced_private_definitions():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    assert trees
    used = set().union(*(_referenced(tree, path) for path, tree in trees.items()))
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _defined(tree).items()
        if name not in used
    ]
    assert unused == []


BENCH = SRC.parent / "bench"
# Public names that stay although nothing in src/ or bench/ calls them, each with its reason.
PUBLIC_ALLOWED = {
    "from_atoms": "README's example builds its measure with it",
}


def _public(tree: ast.Module) -> dict:
    """The module's public functions and classes, and their classes' public methods, with their lines."""
    out = {}
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for n in [node, *members]:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not n.name.startswith("_"):
                out[n.name] = n.lineno
    return out


def test_no_unreferenced_public_definitions():
    src = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    bench = {path: ast.parse(path.read_text()) for path in sorted(BENCH.rglob("*.py"))}
    assert src and bench
    used = set().union(*(_referenced(tree, path) for path, tree in [*src.items(), *bench.items()]))
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path, tree in src.items()
        for name, line in _public(tree).items()
        if name not in used and name not in PUBLIC_ALLOWED
    ]
    assert unused == []
