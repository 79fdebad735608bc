"""Public names: every ``__all__`` entry exists, and the package re-exports
only names its modules declare public, so a deleted name cannot linger in
an export list.  Every function the benchmark's tracer wraps exists too, so
a refactor cannot leave one of its spans silently empty."""

import ast
import importlib
import inspect
import os
import pkgutil
import sys

import pytest

import tanfold
from tanfold import training

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


@pytest.fixture(scope="module")
def tracing():
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
    sys.path.insert(0, bench)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(bench)


def test_every_traced_function_exists(tracing):
    missing = []
    for module, attr, *_ in tracing.TARGETS:
        holder = importlib.import_module(module)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_traced_arguments_keep_their_positions():
    # the tracer reads samples and sel from _batch_loss's arguments 4-5, and
    # samples and w_base from _solve_kernel's arguments 2-3
    assert list(inspect.signature(training._batch_loss).parameters)[4:6] == ["samples", "sel"]
    assert list(inspect.signature(training._solve_kernel).parameters)[2:4] == ["samples", "w_base"]
