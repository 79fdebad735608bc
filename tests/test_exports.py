"""Public names: every ``__all__`` entry exists, and the package re-exports
only names its modules declare public, so a deleted name cannot linger in
an export list."""

import ast
import importlib
import pkgutil

import pytest

import tanfold

MODULES = sorted(m.name for m in pkgutil.iter_modules(tanfold.__path__))


def _package_imports():
    """``(module, name)`` of every ``from .module import name`` of
    ``tanfold/__init__.py``."""
    with open(tanfold.__file__) as fh:
        tree = ast.parse(fh.read())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_exists(module):
    mod = importlib.import_module(f"tanfold.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_reexports_only_public_names():
    imports = _package_imports()
    assert imports
    private = [
        f"{module}.{name}" for module, name in imports
        if name not in importlib.import_module(f"tanfold.{module}").__all__
    ]
    assert private == []
