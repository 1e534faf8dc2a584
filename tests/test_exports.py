"""Export lists: each module's __all__ names real objects, and the package re-exports
only names from them, so a deleted name cannot linger in an export list."""

import ast
import importlib
import pathlib

import pytest

import gamow

MODULES = ["cli", "dynamics", "reps", "scattering", "spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"gamow.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(pathlib.Path(gamow.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        exported = importlib.import_module(f"gamow.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module
