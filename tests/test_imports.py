"""Every module of the package uses each name it imports at module level,
and none holds an assert statement.

The package's __init__.py is exempt from the import check: its imports are
the re-exported API.
"""

import ast
from pathlib import Path

import ecctrees

PACKAGE = sorted(Path(ecctrees.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    module = ast.parse(source)
    bound = set()
    for node in module.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(module) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_no_unused_module_level_imports():
    assert len(MODULES) > 5
    unused = {p.name: _unused_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_assert_statements():
    """The checks in the package raise AssertionError themselves, so they
    still run under python -O, which strips assert statements."""
    asserts = {
        p.name: [node.lineno for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.Assert)]
        for p in PACKAGE
    }
    assert {name: lines for name, lines in asserts.items() if lines} == {}
