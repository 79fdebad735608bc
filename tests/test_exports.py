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


def _reads(tree):
    """The file reads of a module: ``np.load``, ``json.load``, ``json.loads``
    and ``open`` without a constant write mode, as ``line: call``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            call = f"{func.value.id}.{func.attr}"
            if call in ("np.load", "numpy.load", "json.load", "json.loads"):
                found.append(f"{node.lineno}: {call}")
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+")):
                found.append(f"{node.lineno}: open")
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "atomic"])
def test_files_are_read_only_through_atomic(module):
    # tanfold.atomic holds the one reader of each file kind, so every read
    # fault is one error naming the file
    path = os.path.join(os.path.dirname(tanfold.__file__), f"{module}.py")
    with open(path) as fh:
        assert _reads(ast.parse(fh.read())) == []


def test_read_guard_sees_each_kind_of_read():
    tree = ast.parse("np.load(p)\njson.loads(t)\nopen(p)\nopen(p, 'rb')\n"
                     "open(p, mode='r')\nopen(p, 'w')\nopen(t, 'ab')\n")
    assert _reads(tree) == ["1: np.load", "2: json.loads", "3: open", "4: open", "5: open"]


#: the calls that write a file or make a directory, as ``module.function``;
#: every ``shutil.copy*`` counts too
_WRITE_CALLS = {"np.save", "np.savez", "numpy.save", "numpy.savez", "json.dump",
                "os.replace", "os.makedirs", "os.mkdir"}


def _writes(tree):
    """The file writes of a module: ``open`` with a constant write mode, the
    calls of ``_WRITE_CALLS``, ``shutil.copy*`` and ``_replacing``, as
    ``line: call``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            call = f"{func.value.id}.{func.attr}"
        elif isinstance(func, ast.Name):
            call = func.id
        else:
            continue
        if call == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+")):
                continue
        elif not (call in _WRITE_CALLS or call.startswith("shutil.copy")
                  or call.rpartition(".")[2] == "_replacing"):
            continue
        found.append(f"{node.lineno}: {call}")
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "atomic"])
def test_files_are_written_only_through_atomic(module):
    # tanfold.atomic holds the one writer of each file kind, and each write
    # makes its own directory, so a stage that fails before its first write
    # leaves no output directory
    path = os.path.join(os.path.dirname(tanfold.__file__), f"{module}.py")
    with open(path) as fh:
        assert _writes(ast.parse(fh.read())) == []


def test_write_guard_sees_each_kind_of_write():
    tree = ast.parse("open(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\nopen(p)\nopen(p, 'rb')\n"
                     "np.savez(fh)\nnp.save(p, a)\njson.dump(x, fh)\njson.dumps(x)\n"
                     "shutil.copyfile(a, b)\nshutil.copy2(a, b)\nos.replace(a, b)\n"
                     "os.makedirs(d)\nos.mkdir(d)\n_replacing(p)\natomic._replacing(p)\n")
    assert _writes(tree) == [
        "1: open", "2: open", "3: open", "6: np.savez", "7: np.save", "8: json.dump",
        "10: shutil.copyfile", "11: shutil.copy2", "12: os.replace", "13: os.makedirs",
        "14: os.mkdir", "15: _replacing", "16: atomic._replacing"]
