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
