"""Every module of the package uses each name it imports at module level.

The package's __init__.py is exempt: its imports are the re-exported API.
"""

import ast
from pathlib import Path

import ecctrees

MODULES = sorted(
    p for p in Path(ecctrees.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
