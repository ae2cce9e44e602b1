"""Package layout rules, checked on src/qdlattice/*.py with ast.

Every definition in the package has a caller in the package, outside its own
definition and outside __init__.py. A top-level function, class or
UPPER_CASE constant counts as called only where it is loaded by name (a
load-context ast.Name): in its own module, or in a module that imports it
from there. So a cap or tolerance that no package code reads fails too. A public method of a
top-level class counts as called wherever its name is referenced, as an
ast.Name or as the attribute of an ast.Attribute. Docstrings and comments do
not count. Code that only the tests call belongs in tests/oracles.py or
nowhere.

Only groups.py imports ``fractions``: a phase is a fraction of a turn there
and an integer numerator everywhere else.

No module imports an underscore name from another package module: a
private helper is used where it is defined, so code that needs it lives
beside it.

No module uses an ``assert`` statement: a failed check raises the package's
own error with a message, and ``python -O`` would drop an assert.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qdlattice"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(with_init=False):
    return {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if with_init or path.name != "__init__.py"
    }


def _definitions(tree):
    """(qualified name, referenced name, first line, last line, is method)
    of the top-level definitions, the module-level UPPER_CASE constants and
    the public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    yield t.id, t.id, node.lineno, node.end_lineno, False
        if not isinstance(node, DEFS):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno, True


def _source_module(node):
    """The package module an ``from ... import`` reads from, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("qdlattice."):
        return node.module.removeprefix("qdlattice.")
    return None


def _scan(tree):
    """(load-context names, attribute and name references, imports) of one
    module: name -> lines, name -> lines, and (source module, name) -> local
    aliases of every package import."""
    loads: dict[str, list] = {}
    refs: dict[str, list] = {}
    imports: dict[tuple, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.setdefault(node.id, []).append(node.lineno)
            if isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(node.lineno)
        elif isinstance(node, ast.Attribute):
            refs.setdefault(node.attr, []).append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and _source_module(node):
            for alias in node.names:
                key = (_source_module(node), alias.name)
                imports.setdefault(key, set()).add(alias.asname or alias.name)
    return loads, refs, imports


def test_every_definition_has_a_package_caller():
    modules = _modules()
    scans = {module: _scan(tree) for module, tree in modules.items()}
    unused = []
    for module, tree in modules.items():
        stem = module.removesuffix(".py")
        for qualname, name, first, last, is_method in _definitions(tree):
            calls = []
            for other, (loads, refs, imports) in scans.items():
                if is_method:
                    calls += [(other, line) for line in refs.get(name, ())]
                    continue
                aliases = {name} if other == module else imports.get((stem, name), set())
                calls += [(other, line) for alias in aliases for line in loads.get(alias, ())]
            if all(m == module and first <= line <= last for m, line in calls):
                unused.append(f"{module}:{qualname}")
    assert not unused, f"defined in src/qdlattice but called only from outside it: {unused}"


def test_only_groups_imports_fractions():
    importers = []
    for module, tree in _modules(with_init=True).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names) and module != "groups.py":
                importers.append(f"{module}:{node.lineno}")
    assert not importers, f"only groups.py may import fractions: {importers}"


def test_no_assert_statements():
    asserts = [
        f"{module}:{node.lineno}"
        for module, tree in _modules(with_init=True).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, f"assert statements in src/qdlattice: {asserts}"


def test_no_private_names_imported_across_modules():
    private = [
        f"{module}: {name} from {source}"
        for module, tree in _modules(with_init=True).items()
        for source, name in _scan(tree)[2]
        if name.startswith("_")
    ]
    assert not private, f"underscore names imported from another package module: {private}"
