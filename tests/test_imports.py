import ast
import sys
from pathlib import Path

import ccz

SOURCES = sorted(Path(ccz.__file__).parent.glob("*.py"))


def _imported_modules(path):
    """The top-level names of the absolute imports of ``path``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    # ccz is stdlib-only: every import is relative, of ccz itself, or of a
    # standard library module.
    assert len(SOURCES) >= 8
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in _imported_modules(path)
        if name != "ccz" and name not in sys.stdlib_module_names
    }
    assert outside == set()


def _unused_imports(path):
    """The names bound by module-level imports of ``path`` that it never reads.

    A name counts as read where it appears as an ``ast.Name`` anywhere in
    the module (``sys`` in ``sys.exit`` too), or as a string in ``__all__``.
    """
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_every_module_level_import_is_used():
    # A deletion that leaves its last caller's import behind fails here.
    unused = {(path.name, name) for path in SOURCES for name in _unused_imports(path)}
    assert unused == set()


def _private_names(path):
    """The ``_``-prefixed names bound by module-level defs, classes and assignments of ``path``."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_module_level_private_name_is_read():
    # A deletion that leaves a private helper or table behind fails here.
    # A name counts as read where it appears as a loaded ``ast.Name`` in
    # any module of the package.
    read = {
        node.id
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    private = {(path.name, name) for path in SOURCES for name in _private_names(path)}
    assert private
    assert {(module, name) for module, name in private if name not in read} == set()
