"""The package's imports, read from its source with ``ast``: every import
sits at module level, the modules import one another without a cycle, and
no imported name goes unused."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import compelling

PACKAGE = Path(compelling.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _imports_in_functions(tree: ast.AST):
    """The line of every import statement inside a function body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner.lineno


def _package_imports(tree: ast.AST) -> set[str]:
    """The modules of the package that ``tree`` imports, "__init__" for the
    package itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").split(".")[0] == "compelling":
                base = node.module.partition(".")[2]
            else:
                continue
            if base:
                found.add(base.split(".")[0])
            else:  # from . import x: x is a module of the package
                found.add("__init__")
                found.update(a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "compelling":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names that module-level imports bind and nothing reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_every_import_is_at_module_level():
    found = {
        name: lines
        for name, tree in MODULES.items()
        if (lines := list(_imports_in_functions(tree)))
    }
    assert found == {}


def test_package_imports_have_no_cycle():
    graph = {name: _package_imports(tree) - {name} for name, tree in MODULES.items()}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {err.args[1]}") from None
    assert set(order) == set(MODULES)
    # the graph toolkit stands at the bottom: it imports nothing of the package
    assert graph["graphs"] == set()


def test_no_imported_name_goes_unused():
    found = {
        name: unused
        for name, tree in MODULES.items()
        if name != "__init__" and (unused := _unused_imports(tree))
    }
    assert found == {}


def test_the_checks_see_what_they_look_for():
    # each check on a small module that breaks it
    tree = ast.parse(
        "import os\n"
        "from .graphs import Graph, chromatic_number\n"
        "def f(g: Graph):\n"
        "    from .solver import canonical_colorings\n"
        "    return canonical_colorings(g, 2)\n"
    )
    assert list(_imports_in_functions(tree)) == [4]
    assert _package_imports(tree) == {"graphs", "solver"}
    assert _unused_imports(tree) == ["os (line 1)", "chromatic_number (line 2)"]
    tree = ast.parse("from . import graphs\nimport compelling.td3\n")
    assert _package_imports(tree) == {"__init__", "graphs", "td3"}
