"""Every name a package or test module imports is used again in that module,
and every private name a package module defines is used in the package.

A name counts as used when the module reads it, or when the module lists
it in ``__all__`` (the package's ``__init__`` re-exports that way).
``from __future__`` imports are exempt.  A private name is one with a
leading underscore and no trailing dunder; it is defined at module level
by a def, a class or an assignment, and used when some package module
reads it, by name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

import pes_denoise

PACKAGE = sorted(Path(pes_denoise.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
MODULES = PACKAGE + TESTS
IDS = [path.name for path in PACKAGE] + [f"tests/{path.name}" for path in TESTS]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=IDS)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    source = "from dataclasses import dataclass, replace\n\n\n@dataclass\nclass A:\n    x: int\n"
    tree = ast.parse(source)
    assert set(_imported(tree)) - _used(tree) == {"replace"}


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def _read(tree: ast.Module) -> set[str]:
    """Every name a module reads, by name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused_private(trees: list[ast.Module]) -> set[str]:
    defined = set().union(*map(_private_definitions, trees))
    return defined - set().union(*map(_read, trees))


def test_every_private_name_of_the_package_is_used():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE]
    assert not _unused_private(trees)


def test_the_check_sees_an_unused_private_name():
    source = (
        "import numpy as np\n\n_USED = 1\n_SPARE: int = 2\n\n\n"
        "def _helper():\n    return _USED\n\n\ndef _leftover():\n    return np.zeros(_USED)\n\n\n"
        "class _Orphan:\n    _attr = 3\n\n\n"
        "def public():\n    return _helper()\n"
    )
    assert _unused_private([ast.parse(source)]) == {"_SPARE", "_leftover", "_Orphan"}
