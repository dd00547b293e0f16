"""No function without a caller and no import without a use, in the package and its test oracles."""

import ast
from pathlib import Path

import toric_virasoro

PACKAGE = Path(toric_virasoro.__file__).resolve().parent
ROOT = PACKAGE.parents[1]

# definitions kept without a caller in the program, each with its reason
ALLOWED = {
    "Case.twisted": "the twist invariance that the tests check",
    "Case.drop_point": "the broken case whose certificate the tests refuse",
}


def _definitions(tree: ast.Module):
    """``(qualified name, simple name)`` of every top-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    """Every name that a ``Name``, an ``Attribute`` or an import refers to."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _program():
    """The package's syntax trees, and every name that the package or the benchmark uses."""
    package = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*map(_references, [*package.values(), *bench]), toric_virasoro.__all__)
    return package, used


def test_every_definition_has_a_caller():
    package, used = _program()
    uncalled = [
        f"{path.name}: {qualified}"
        for path, tree in package.items()
        for qualified, name in _definitions(tree)
        if name not in used and qualified not in ALLOWED
    ]
    assert not uncalled, uncalled


def test_every_allowed_definition_exists_and_has_no_caller():
    # an entry that gains a caller or loses its definition leaves the list
    package, used = _program()
    defined = {q: name for tree in package.values() for q, name in _definitions(tree)}
    for qualified in ALLOWED:
        assert qualified in defined, qualified
        assert defined[qualified] not in used, qualified


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names an import statement binds that no ``Name`` node of the module reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, through __all__
    package, _used = _program()
    oracles = ROOT / "tests" / "oracles.py"
    package[oracles] = ast.parse(oracles.read_text())
    unused = [
        f"{path.name}: {name}"
        for path, tree in package.items()
        if path.name != "__init__.py"
        for name in _unused_imports(tree)
    ]
    assert not unused, unused


def test_every_oracle_is_named_by_a_test():
    # an oracle is live when a test module names it, or a live oracle does
    tests = ROOT / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text())
    bodies = {
        node.name: _references(node)
        for node in oracles.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    live = set().union(*(_references(ast.parse(p.read_text())) for p in tests.glob("test_*.py")))
    live &= bodies.keys()
    frontier = list(live)
    while frontier:
        for name in bodies[frontier.pop()] & (bodies.keys() - live):
            live.add(name)
            frontier.append(name)
    assert sorted(bodies.keys() - live) == []

