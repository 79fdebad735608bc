"""The narrative demos run to completion against the current API."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import tanfold

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(tanfold.__file__))


# planted_pipeline.py (about 8 s) and identifiability.py (about 50 s)
# are left out: they train through the training API that the
# acceptance checks run; test_slow_demo_imports_exist guards their imports
@pytest.mark.parametrize("name", [
    "block_decoupling.py", "exact_spectral_fit.py", "gauge_dependence.py",
])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("name", ["planted_pipeline.py", "identifiability.py"])
def test_slow_demo_imports_exist(name):
    with open(os.path.join(ROOT, "demos", name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tanfold":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "tanfold"]
    assert imported, f"{name} imports nothing from tanfold"
    for module, attr in imported:
        mod = importlib.import_module(module)
        assert attr is None or hasattr(mod, attr), f"{name}: {module} has no {attr}"
