"""Every name a package or test module imports is used again in that module.

A name counts as used when the module reads it, or when the module lists
it in ``__all__`` (the package's ``__init__`` re-exports that way).
``from __future__`` imports are exempt.
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
