"""The narrative demos run to completion against the current API."""

import os
import subprocess
import sys

import pytest

import tanfold

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(tanfold.__file__))


# planted_pipeline.py is left out: it trains for about 8 s, through the
# training API that the acceptance checks run
@pytest.mark.parametrize("name", [
    "block_decoupling.py", "exact_spectral_fit.py", "toy_integrals.py",
])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
