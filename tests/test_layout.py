"""Every definition in the package has a caller in the package.

Walks src/qdlattice/*.py with ast: each top-level function or class, and
each public method, must be referenced by name (an ast.Name or the attribute
of an ast.Attribute, so docstrings and comments do not count) from package
code outside its own definition and outside __init__.py. Code that only the
tests call belongs in tests/oracles.py or nowhere.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qdlattice"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(qualified name, referenced name, first line, last line) of the
    top-level definitions and the public methods of top-level classes."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_has_a_package_caller():
    modules = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    refs: dict[str, set] = {}
    for module, tree in modules.items():
        for name, line in _references(tree):
            refs.setdefault(name, set()).add((module, line))
    unused = []
    for module, tree in modules.items():
        for qualname, name, first, last in _definitions(tree):
            outside = (m != module or not first <= line <= last for m, line in refs.get(name, ()))
            if not any(outside):
                unused.append(f"{module}:{qualname}")
    assert not unused, f"defined in src/qdlattice but called only from outside it: {unused}"
