"""``tools/compare_walkthrough.py``: the file comparison, and one whole run
of the desk walkthrough on this tree against itself."""

import importlib.util
import os

import numpy as np
import pytest

from tanfold import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.fixture(scope="module")
def tool():
    path = os.path.join(ROOT, "tools", "compare_walkthrough.py")
    spec = importlib.util.spec_from_file_location("compare_walkthrough", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_lists_missing_and_changed_files_and_manifests(tool, tmp_path):
    # manifests that differ only in their wall time match; one whose
    # config differs is listed
    _write(tmp_path / "a", {"same.csv": b"1\n", "run/x.npz": b"ab", "only_a.txt": b"",
                            "run/manifest.json": b'{"seed": 1, "wall_time_s": 0.5}',
                            "fit/manifest.json": b'{"config": {"a": 1}}'})
    _write(tmp_path / "b", {"same.csv": b"1\n", "run/x.npz": b"ac", "run/only_b.txt": b"",
                            "run/manifest.json": b'{"wall_time_s": 1, "seed": 1}',
                            "fit/manifest.json": b'{"config": {"a": 2}}'})
    diff, total = tool.differing_files(str(tmp_path / "a"), str(tmp_path / "b"))
    assert diff == [os.path.join("fit", "manifest.json"), "only_a.txt",
                    os.path.join("run", "only_b.txt"), os.path.join("run", "x.npz")]
    assert total == 6


def test_a_tree_against_itself_differs_in_no_file(tool, capsys):
    assert tool.main([ROOT, ROOT, "--workload", "desk", "--seed", "3"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("desk seed 3: 0 of ") and last.endswith(" files differ")


def test_runs_at_the_thread_counts_every_manifest_records(tool):
    assert tool.THREAD_VARS == cli._BLAS_THREAD_VARS


def test_names_the_largest_relative_difference_of_a_numeric_file(tool, tmp_path):
    # one value perturbed in a CSV and one in an .npz; a changed word, or a
    # row more, makes the structure differ
    a, b = tmp_path / "a", tmp_path / "b"
    table = "index,bare,eff,flagged\n1,2.5,-4.0,false\n2,0.0,nan,true\n"
    _write(a, {"t.csv": table.encode(), "w.csv": table.encode(), "r.csv": table.encode()})
    _write(b, {"t.csv": table.replace("-4.0", "-4.002").encode(),
               "w.csv": table.replace("false", "true").encode(),
               "r.csv": (table + "3,1.0,1.0,false\n").encode()})
    w = np.arange(6.0).reshape(2, 3) + 1.0
    np.savez(a / "k.npz", matrix=w, step=np.int64(0), layout=np.str_("m"), extra=np.ones(2))
    w[1, 2] *= 1.0 + 1e-12
    np.savez(b / "k.npz", matrix=w, step=np.int64(0), layout=np.str_("n"), extra=np.ones(3))

    def largest(rel):
        return tool.largest_relative_difference(str(a / rel), str(b / rel))

    assert largest("t.csv") == pytest.approx(0.002 / 4.002, rel=1e-12)
    assert largest("k.npz") == pytest.approx(1e-12, rel=1e-3)
    assert largest("w.csv") is None and largest("r.csv") is None
    assert largest("missing.csv") is None
