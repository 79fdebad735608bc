"""``tools/compare_walkthrough.py``: the file comparison, and one whole run
of the desk walkthrough on this tree against itself."""

import importlib.util
import os

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
