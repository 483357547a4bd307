"""Every module of the package uses each name it imports at module level,
binds every name its annotations use, and holds no assert statement.

The package's __init__.py is exempt from the import check: its imports are
the re-exported API.
"""

import ast
import builtins
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


def _module_bindings(module: ast.Module) -> set[str]:
    """Names bound in the module's own scope: imports, defs, classes and
    assignment targets, under if, try and with blocks too, but not inside a
    function or class body."""
    bound = set()
    stack = list(module.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return bound


def _annotation_names(module: ast.Module) -> set[str]:
    """Every name read by an annotation anywhere in the module, string
    annotations parsed too."""
    annotations = []
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a]
            annotations += [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    stack = [a for a in annotations if a is not None]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval")
        if isinstance(node, ast.Name):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unbound_annotation_names(source: str) -> list[str]:
    module = ast.parse(source)
    known = _module_bindings(module) | set(dir(builtins))
    return sorted(_annotation_names(module) - known)


def test_every_annotation_name_is_bound():
    """A name that only a function imports is unbound where its annotations
    are resolved; pyflakes reports it as F821."""
    unbound = {p.name: _unbound_annotation_names(p.read_text()) for p in PACKAGE}
    assert {name: names for name, names in unbound.items() if names} == {}


def test_unbound_annotation_name_is_caught():
    source = (
        "def f() -> Fraction:\n"
        "    from fractions import Fraction\n"
        "    return Fraction(1)\n"
        "x: 'Decimal'\n"
    )
    assert _unbound_annotation_names(source) == ["Decimal", "Fraction"]
    guarded = "TYPE_CHECKING = False\nif TYPE_CHECKING:\n    from fractions import Fraction\n"
    assert _unbound_annotation_names(guarded + source) == ["Decimal"]


def test_no_assert_statements():
    """The checks in the package raise AssertionError themselves, so they
    still run under python -O, which strips assert statements."""
    asserts = {
        p.name: [node.lineno for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, ast.Assert)]
        for p in PACKAGE
    }
    assert {name: lines for name, lines in asserts.items() if lines} == {}
