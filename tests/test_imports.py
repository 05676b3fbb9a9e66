"""The package's imports, read from its source with ``ast``: every import
sits at module level, the modules import one another without a cycle, no
imported name goes unused, and every private function or class is read
somewhere in the package, so code that only the tests need lives with
the tests.  The names that docstrings and the README point to exist.  No
module reads the frozenset view ``Graph.adj``, and a full verification
run builds it on no corpus graph."""

import ast
import re
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import compelling
from compelling import verify

PACKAGE = Path(compelling.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
README = Path(__file__).resolve().parents[1] / "README.md"
# a Sphinx-style pointer in a docstring, and a name qualified by one of the
# package's modules in prose
_DOC_REFERENCE = re.compile(r":(?:func|class):`([\w.]+)`")
_QUALIFIED_NAME = re.compile(
    r"(?<![\w./])((?:%s)\.(?!py\b)\w+)" % "|".join(m for m in MODULES if m[0] != "_")
)


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


def _reads(node: ast.AST) -> set[str]:
    """The names read under ``node``: loaded names and attributes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    }


def _unread_private_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """The private functions and classes defined at module level that no
    code reads outside their own definition."""
    found = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or not node.name.startswith("_") or node.name.startswith("__"):
                continue
            elsewhere = [other for other in tree.body if other is not node]
            elsewhere += [t for other, t in modules.items() if other != name]
            if not any(node.name in _reads(other) for other in elsewhere):
                found.append(f"{name}.{node.name} (line {node.lineno})")
    return found


def _adj_reads(tree: ast.AST) -> list[int]:
    """The lines that read an attribute named ``adj``, outside the body of
    a definition of that name."""
    own = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "adj"
        for inner in ast.walk(node)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "adj" and id(node) not in own
    ]


def _definitions(tree: ast.Module) -> set[str]:
    """The names that a module's top-level statements define."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _docstring_references(tree: ast.Module) -> list[str]:
    """The names that the docstrings of a module, its classes and its
    functions point to with ``:func:`` or ``:class:``."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            refs += _DOC_REFERENCE.findall(ast.get_docstring(node) or "")
    return refs


def _dangling(refs, modules: dict[str, ast.Module]) -> list[str]:
    """The references, each ``name`` or ``module.name``, that name nothing
    the package defines: a bare name must be defined in some module, a
    qualified one in its module.  A name qualified by a module outside the
    package, such as ``functools.cache``, is not checked."""
    defined = {name: _definitions(tree) for name, tree in modules.items()}
    anywhere = set().union(*defined.values())
    found = []
    for ref in refs:
        owner, _, name = ref.removeprefix("compelling.").rpartition(".")
        if owner in defined:
            if name not in defined[owner]:
                found.append(ref)
        elif not owner and name not in anywhere:
            found.append(ref)
    return found


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


def test_every_private_definition_is_read():
    assert _unread_private_definitions(MODULES) == []


def test_docstring_and_readme_references_resolve():
    refs = [ref for tree in MODULES.values() for ref in _docstring_references(tree)]
    assert len(refs) > 50
    assert _dangling(refs, MODULES) == []
    named = _QUALIFIED_NAME.findall(README.read_text())
    assert len(named) > 5
    assert _dangling(named, MODULES) == []


def test_no_module_reads_the_set_adjacency_view():
    # every kernel reads ``adj_bits``; ``adj`` is built on demand for
    # set-based callers outside the package, and kept on the graph once built
    assert "adj" in vars(compelling.Graph)
    found = {name: lines for name, tree in MODULES.items() if (lines := _adj_reads(tree))}
    assert found == {}


def test_verification_builds_no_set_adjacency_view():
    # a seed of its own, so that no other test has touched these corpora
    seed = 3729
    results = verify.run_suite("all", seed)
    assert len(results) == len(verify.SUITES)
    built = [
        g.name
        for g in verify.main_corpus(seed) + verify.td3_corpus(seed)
        if "adj" in g.__dict__
    ]
    assert built == []


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
    # a private definition read only by itself, or by nothing, is unread
    tree = ast.parse(
        "def _used():\n"
        "    return 1\n"
        "def _itself(n):\n"
        "    return _itself(n - 1)\n"
        "class _Unused:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    return _used()\n"
    )
    other = ast.parse("from .m import _Imported\nvalue = m._Kept\n")
    kept = ast.parse("class _Kept:\n    pass\nclass _Imported:\n    pass\n")
    assert _unread_private_definitions({"m": tree, "n": other, "k": kept}) == [
        "m._itself (line 3)",
        "m._Unused (line 5)",
        "k._Imported (line 3)",
    ]
    # a pointer to a name that no module defines, or that its module lacks
    tree = ast.parse(
        '"""See :func:`_here`, :class:`m.Box` and :func:`functools.cache`."""\n'
        "def _here():\n"
        '    """Unlike :func:`m._gone` or :func:`compelling.m.LIMIT`."""\n'
        "class Box:\n"
        '    """Built by :func:`_nowhere`."""\n'
        "LIMIT: int = 3\n"
    )
    refs = _docstring_references(tree)
    assert refs == [
        "_here", "m.Box", "functools.cache", "m._gone", "compelling.m.LIMIT", "_nowhere"
    ]
    assert _dangling(refs, {"m": tree}) == ["m._gone", "_nowhere"]
    # a read of ``adj`` anywhere but in its own definition
    tree = ast.parse(
        "class Graph:\n"
        "    def adj(self):\n"
        "        return self.adj\n"
        "def degree(g, v):\n"
        "    return len(g.adj[v])\n"
        "bits = g.adj_bits\n"
    )
    assert _adj_reads(tree) == [5]
    assert _QUALIFIED_NAME.findall(
        "`solver.is_compelling`, compelling.graphs, bench/cli.py, verify.py, td3.x"
    ) == ["solver.is_compelling", "td3.x"]
